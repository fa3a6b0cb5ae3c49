#include "io/binary.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace pddl::io {

namespace {

// Slicing-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table;
// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the CRC over eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  const CrcTables& t = kCrcTables;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

// ---- BinaryWriter ----

void BinaryWriter::raw(const void* data, std::size_t size) {
  if (buf_ != nullptr) {
    buf_->append(static_cast<const char*>(data), size);
  } else {
    os_->write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    PDDL_CHECK(os_->good(), "binary write failed after ", bytes_, " bytes");
    crc_ = crc32_update(crc_, data, size);
    crc_bytes_ += size;
  }
  bytes_ += size;
}

void BinaryWriter::u8(std::uint8_t v) { raw(&v, 1); }

void BinaryWriter::u32(std::uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  raw(b, 4);
}

void BinaryWriter::u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  raw(b, 8);
}

void BinaryWriter::i32(std::int32_t v) {
  u32(static_cast<std::uint32_t>(v));
}

void BinaryWriter::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void BinaryWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void BinaryWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  if (!s.empty()) raw(s.data(), s.size());
}

void BinaryWriter::magic(const char m[4]) { raw(m, 4); }

std::uint32_t BinaryWriter::crc() const {
  if (crc_bytes_ < bytes_) {  // buffer mode: fold in the unhashed tail
    crc_ = crc32_update(crc_, buf_->data() + start_ + crc_bytes_,
                        bytes_ - crc_bytes_);
    crc_bytes_ = bytes_;
  }
  return crc_ ^ 0xffffffffu;
}

void BinaryWriter::finish_crc() {
  const std::uint32_t trailer = crc();
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<unsigned char>(trailer >> (8 * i));
  }
  if (buf_ != nullptr) {
    buf_->append(reinterpret_cast<const char*>(b), 4);
  } else {
    os_->write(reinterpret_cast<const char*>(b), 4);
    PDDL_CHECK(os_->good(), "binary write failed writing CRC trailer");
  }
  bytes_ += 4;
  crc_bytes_ = bytes_;  // the trailer is not part of any later CRC
}

// ---- BinaryReader ----

BinaryReader::BinaryReader(std::istream& is, std::string what)
    : is_(&is), what_(std::move(what)) {}

BinaryReader::BinaryReader(std::string bytes, std::string what)
    : owned_(std::make_unique<std::string>(std::move(bytes))),
      data_(owned_->data()),
      size_(owned_->size()),
      what_(std::move(what)) {}

BinaryReader::BinaryReader(const char* data, std::size_t size,
                           std::string what)
    : data_(data), size_(size), what_(std::move(what)) {}

bool BinaryReader::take(void* dst, std::size_t size) {
  if (is_ != nullptr) {
    is_->read(static_cast<char*>(dst), static_cast<std::streamsize>(size));
    if (!is_->good() &&
        !(is_->eof() && static_cast<std::size_t>(is_->gcount()) == size)) {
      return false;
    }
  } else {
    if (size > size_ - bytes_) return false;
    if (size > 0) std::memcpy(dst, data_ + bytes_, size);
  }
  bytes_ += size;
  return true;
}

void BinaryReader::raw(void* dst, std::size_t size) {
  PDDL_CHECK(take(dst, size), what_, " truncated at byte ", bytes_);
  if (is_ != nullptr) {
    crc_ = crc32_update(crc_, dst, size);
    crc_bytes_ = bytes_;
  }
}

std::uint8_t BinaryReader::u8() {
  std::uint8_t v = 0;
  raw(&v, 1);
  return v;
}

std::uint32_t BinaryReader::u32() {
  unsigned char b[4];
  raw(b, 4);
  return load_le32(b);
}

std::uint64_t BinaryReader::u64() {
  unsigned char b[8];
  raw(b, 8);
  return static_cast<std::uint64_t>(load_le32(b)) |
         static_cast<std::uint64_t>(load_le32(b + 4)) << 32;
}

std::int32_t BinaryReader::i32() { return static_cast<std::int32_t>(u32()); }

std::int64_t BinaryReader::i64() { return static_cast<std::int64_t>(u64()); }

double BinaryReader::f64() { return std::bit_cast<double>(u64()); }

std::string BinaryReader::str(std::uint32_t max_len) {
  const std::uint32_t len = u32();
  PDDL_CHECK(len <= max_len, what_, ": unreasonable string length ", len);
  std::string s(len, '\0');
  if (len > 0) raw(s.data(), len);
  return s;
}

void BinaryReader::expect_magic(const char expected[4],
                                const char* format_name) {
  char m[4];
  raw(m, 4);
  PDDL_CHECK(std::memcmp(m, expected, 4) == 0, what_, ": not a ", format_name,
             " file (bad magic)");
}

std::uint32_t BinaryReader::crc() const {
  if (crc_bytes_ < bytes_) {  // buffer mode: fold in the unhashed tail
    crc_ = crc32_update(crc_, data_ + crc_bytes_, bytes_ - crc_bytes_);
    crc_bytes_ = bytes_;
  }
  return crc_ ^ 0xffffffffu;
}

void BinaryReader::verify_crc() {
  const std::uint32_t expected = crc();
  unsigned char b[4];
  PDDL_CHECK(take(b, 4), what_, " truncated (missing CRC trailer)");
  crc_bytes_ = bytes_;  // the trailer is not part of any later CRC
  const std::uint32_t stored = load_le32(b);
  PDDL_CHECK(stored == expected, what_, " corrupted: CRC mismatch (stored ",
             stored, ", computed ", expected, ")");
}

bool BinaryReader::at_end() {
  if (is_ == nullptr) return bytes_ == size_;
  return is_->peek() == std::istream::traits_type::eof();
}

}  // namespace pddl::io
