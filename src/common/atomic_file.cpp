#include "common/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/check.hpp"

namespace pddl::io {

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  PDDL_CHECK(fd >= 0, "cannot open for write: ", tmp, ": ",
             std::strerror(errno));
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  bool ok = done == bytes.size() && ::fsync(fd) == 0;
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
    PDDL_CHECK(false, "failed writing ", path, ": ", std::strerror(cause));
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

}  // namespace pddl::io
