// Snapshot container: named binary sections in one checksummed file.
//
// Every persistent artifact of the system (GHN weights, measurement
// campaigns, fitted regressors, warm embedding caches) is written through
// this container so corruption detection, versioning, and endianness are
// solved once instead of per format.  File layout (all little-endian):
//
//   magic "PDSN" | u32 container version | u32 section count
//   per section:  u32 name length | name bytes | u64 payload size | payload
//   u32 CRC-32 of every preceding byte
//
// Section payloads are opaque to the container; clients write them through
// the BinaryWriter returned by SnapshotWriter::add() and read them back via
// SnapshotReader::reader(name).  SnapshotReader validates magic, version,
// framing, and the CRC trailer up front, so by the time a section is opened
// the bytes are known-good: truncation, bit flips, and version skew all
// surface as clean pddl::Error, never as garbage state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "io/binary.hpp"

namespace pddl::io {

inline constexpr char kSnapshotMagic[4] = {'P', 'D', 'S', 'N'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

class SnapshotWriter {
 public:
  SnapshotWriter() = default;
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  // Starts a new section and returns the writer for its payload.  The
  // reference stays valid until the snapshot is saved; section names must be
  // unique within one snapshot.
  BinaryWriter& add(const std::string& name);

  std::size_t num_sections() const { return sections_.size(); }

  void save(std::ostream& os) const;
  // Crash-safe: writes `path`.tmp, fsyncs it, then renames it over `path`,
  // so `path` always holds either its previous contents or the new ones.
  void save_file(const std::string& path) const;

 private:
  void write(BinaryWriter& w) const;

  struct Section {
    std::string name;
    // Heap-held so the writer's buffer pointer survives sections_ growing.
    std::unique_ptr<std::string> buffer;
    std::unique_ptr<BinaryWriter> writer;
  };
  std::vector<Section> sections_;
};

class SnapshotReader {
 public:
  // Loads and validates the whole container (magic, version, framing, CRC).
  explicit SnapshotReader(std::istream& is, std::string what = "snapshot");
  explicit SnapshotReader(const std::string& path);

  // Section names in file order.
  const std::vector<std::string>& names() const { return names_; }
  // Section names beginning with `prefix`, in file order — the idiom every
  // multi-section consumer (GHN/campaign/regressor/cache/observation
  // loaders) shares.
  std::vector<std::string> names_with_prefix(const std::string& prefix) const;
  bool has(const std::string& name) const;

  // Reader over a section's payload bytes; throws if the section is absent.
  BinaryReader reader(const std::string& name) const;

 private:
  void parse(std::istream& is);

  std::string what_;
  std::vector<std::string> names_;
  std::vector<std::string> payloads_;  // parallel to names_
};

}  // namespace pddl::io
