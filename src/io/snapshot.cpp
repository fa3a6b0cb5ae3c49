#include "io/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

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

namespace {

// Writes all of `bytes` to `fd` and fsyncs it; false on any failure.
bool write_all_and_sync(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return ::fsync(fd) == 0;
}

}  // namespace

void SnapshotWriter::save_file(const std::string& path) const {
  // Write-temp → fsync → rename: a crash at any point leaves either the old
  // file or the complete new one at `path`, never a truncated mix.
  std::string bytes;
  BinaryWriter w(bytes);
  write(w);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  PDDL_CHECK(fd >= 0, "cannot open for write: ", tmp, ": ",
             std::strerror(errno));
  bool ok = write_all_and_sync(fd, bytes);
  int cause = errno;
  if (::close(fd) != 0 && ok) {
    ok = false;
    cause = errno;
  }
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) {
    ok = false;
    cause = errno;
  }
  if (!ok) {
    std::remove(tmp.c_str());
    PDDL_CHECK(false, "failed writing snapshot: ", path, ": ",
               std::strerror(cause));
  }
  // Make the rename itself durable (best effort: not every filesystem lets
  // a directory be opened for fsync).
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
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
