// Versioned, checksummed binary stream primitives — the base of every
// on-disk format and of the rpc wire format in the repository (see
// DESIGN.md "Snapshot container format").
//
// Every multi-byte value is encoded explicitly little-endian, byte by byte,
// so files written on one platform load on any other.  Both endpoints keep a
// CRC-32 (IEEE 802.3) of the bytes that passed through them; writers append
// it as a trailer with finish_crc() and readers verify it with verify_crc(),
// which turns any single flipped bit between header and trailer into a clean
// PDDL_CHECK error instead of silently corrupt state.
//
// Each endpoint has two modes with identical bytes and checks.  Over a
// std::ostream / std::istream (real file I/O) the CRC is updated as bytes
// pass.  Over contiguous memory (a caller's std::string, an owned buffer, or
// borrowed bytes) fields are appended or copied through a cursor, and the
// CRC is computed in one pass over the buffer only when crc(), finish_crc()
// or verify_crc() asks for it — a payload whose CRC nothing reads costs no
// CRC work at all.
//
// Truncation, oversized length prefixes, and bad magic all fail the same
// way: a pddl::Error naming the stream, never undefined behaviour.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "common/check.hpp"

namespace pddl::io {

// Running CRC-32 (reflected, polynomial 0xEDB88320, as used by zip/png),
// eight bytes per step (slicing-by-8).
std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t size);

class BinaryWriter {
 public:
  // Writes through a caller-owned stream.
  explicit BinaryWriter(std::ostream& os) : os_(&os) {}
  // Appends to a caller-owned buffer; the CRC covers only the bytes this
  // writer appended.  `buf` must outlive the writer, and nothing else may
  // append to it while the writer is in use.
  explicit BinaryWriter(std::string& buf) : buf_(&buf), start_(buf.size()) {}

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  // u32 length prefix + raw bytes.
  void str(const std::string& s);
  // Exactly 4 magic bytes, e.g. "PDCG" (not length-prefixed).
  void magic(const char m[4]);
  void raw(const void* data, std::size_t size);

  std::uint64_t bytes_written() const { return bytes_; }
  // CRC of everything written so far, trailers excluded.
  std::uint32_t crc() const;

  // Appends the CRC of everything written so far as a u32 trailer.  The
  // trailer itself is excluded from the CRC, so a reader can verify with
  // verify_crc() after consuming the payload.
  void finish_crc();

 private:
  std::ostream* os_ = nullptr;  // stream mode
  std::string* buf_ = nullptr;  // buffer mode
  std::size_t start_ = 0;       // buf_ size when this writer took it over
  std::uint64_t bytes_ = 0;
  // CRC state (pre-final-xor) covering the first crc_bytes_ bytes written;
  // buffer mode folds the rest in lazily when crc() is asked.
  mutable std::uint32_t crc_ = 0xffffffffu;
  mutable std::uint64_t crc_bytes_ = 0;
};

class BinaryReader {
 public:
  // Reads from a caller-owned stream (`what` names it in error messages).
  explicit BinaryReader(std::istream& is, std::string what = "stream");
  // Reads from an owned in-memory buffer (e.g. a snapshot section).  The
  // bytes live on the heap, so a moved reader keeps reading the same bytes.
  explicit BinaryReader(std::string bytes, std::string what = "buffer");
  // Reads `size` caller-owned bytes at `data`, which must outlive the
  // reader.  Nothing is copied.
  BinaryReader(const char* data, std::size_t size, std::string what);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  bool boolean() { return u8() != 0; }
  // Rejects length prefixes above `max_len` before allocating.
  std::string str(std::uint32_t max_len = (1u << 20));
  // Reads 4 bytes and checks them against `expected` ("not a <what> file"
  // otherwise).
  void expect_magic(const char expected[4], const char* format_name);
  void raw(void* dst, std::size_t size);

  std::uint64_t bytes_read() const { return bytes_; }
  // CRC of everything consumed so far, trailers excluded.
  std::uint32_t crc() const;

  // Reads the u32 trailer written by finish_crc() and checks it against the
  // CRC of everything consumed so far.
  void verify_crc();
  // True when the underlying stream has no bytes left.
  bool at_end();

  const std::string& what() const { return what_; }

 private:
  // Copies exactly `size` bytes to `dst` and advances; false (nothing
  // consumed in buffer mode) when fewer remain.  Does not touch the CRC.
  bool take(void* dst, std::size_t size);

  std::istream* is_ = nullptr;          // stream mode
  std::unique_ptr<std::string> owned_;  // buffer mode, owned bytes
  const char* data_ = nullptr;          // buffer mode: owned_ or borrowed
  std::size_t size_ = 0;
  std::string what_;
  std::uint64_t bytes_ = 0;  // also the cursor into data_ in buffer mode
  mutable std::uint32_t crc_ = 0xffffffffu;
  mutable std::uint64_t crc_bytes_ = 0;
};

}  // namespace pddl::io
