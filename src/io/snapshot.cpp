#include "io/snapshot.hpp"

#include <fstream>

#include "common/atomic_file.hpp"

namespace pddl::io {

BinaryWriter& SnapshotWriter::add(const std::string& name) {
  PDDL_CHECK(!name.empty(), "snapshot section needs a name");
  for (const Section& s : sections_) {
    PDDL_CHECK(s.name != name, "duplicate snapshot section '", name, "'");
  }
  Section s;
  s.name = name;
  s.buffer = std::make_unique<std::string>();
  s.writer = std::make_unique<BinaryWriter>(*s.buffer);
  sections_.push_back(std::move(s));
  return *sections_.back().writer;
}

void SnapshotWriter::write(BinaryWriter& w) const {
  w.magic(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    const std::string& payload = *s.buffer;
    w.str(s.name);
    w.u64(payload.size());
    if (!payload.empty()) w.raw(payload.data(), payload.size());
  }
  w.finish_crc();
}

void SnapshotWriter::save(std::ostream& os) const {
  BinaryWriter w(os);
  write(w);
}

void SnapshotWriter::save_file(const std::string& path) const {
  std::string bytes;
  BinaryWriter w(bytes);
  write(w);
  write_file_atomic(path, bytes);
}

SnapshotReader::SnapshotReader(std::istream& is, std::string what)
    : what_(std::move(what)) {
  parse(is);
}

SnapshotReader::SnapshotReader(const std::string& path) : what_(path) {
  std::ifstream is(path, std::ios::binary);
  PDDL_CHECK(is.good(), "cannot open for read: ", path);
  parse(is);
}

void SnapshotReader::parse(std::istream& is) {
  BinaryReader r(is, what_);
  r.expect_magic(kSnapshotMagic, "PredictDDL snapshot");
  const std::uint32_t version = r.u32();
  PDDL_CHECK(version == kSnapshotVersion, what_,
             ": unsupported snapshot version ", version,
             " (this build reads version ", kSnapshotVersion, ")");
  const std::uint32_t count = r.u32();
  PDDL_CHECK(count < (1u << 16), what_, ": unreasonable section count ",
             count);
  names_.reserve(count);
  payloads_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str(1u << 10);
    const std::uint64_t size = r.u64();
    PDDL_CHECK(size < (1ull << 32), what_, ": unreasonable section size ",
               size, " for '", name, "'");
    std::string payload(static_cast<std::size_t>(size), '\0');
    if (size > 0) r.raw(payload.data(), payload.size());
    names_.push_back(std::move(name));
    payloads_.push_back(std::move(payload));
  }
  r.verify_crc();
  PDDL_CHECK(r.at_end(), what_, ": trailing bytes after CRC trailer");
}

std::vector<std::string> SnapshotReader::names_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> out;
  for (const std::string& n : names_) {
    if (n.rfind(prefix, 0) == 0) out.push_back(n);
  }
  return out;
}

bool SnapshotReader::has(const std::string& name) const {
  for (const std::string& n : names_) {
    if (n == name) return true;
  }
  return false;
}

BinaryReader SnapshotReader::reader(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return BinaryReader(payloads_[i], what_ + " section '" + name + "'");
    }
  }
  PDDL_CHECK(false, what_, " has no section '", name, "'");
  return BinaryReader(std::string(), what_);  // unreachable
}

}  // namespace pddl::io
