// Crash-safe whole-file writes, shared by every writer of a persistent
// artifact (snapshots, GHN weights, graphs, parameters, CSV outputs).
#pragma once

#include <string>
#include <string_view>

namespace pddl::io {

// Writes `bytes` to `path`.tmp, fsyncs it, renames it over `path`, then
// fsyncs the directory: a crash at any point leaves `path` holding either
// its previous contents or all of `bytes`, never a truncated mix.  Throws
// pddl::Error (and removes the temp file) if any step fails, so a full disk
// is an error rather than a silently short file.
void write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace pddl::io
