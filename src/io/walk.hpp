// Bidirectional field walks (DESIGN.md §7, "Walks").
//
// Each message or snapshot section has one function template,
// walk(Stream&, T&), that visits its fields in encoding order.  Stream is
// BinaryWriter, with T const, and each field is written; or BinaryReader,
// and each field is read in place.  Both directions run the same code, so
// they cannot disagree on field order or width.  The reader-side checks
// every format needs live here once: an enum byte must be in range, a
// sequence count must be under its bound before anything is reserved, and
// a string length must be under kMaxFieldString.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "io/binary.hpp"

namespace pddl::io {

// True on the write side of a walk.
template <class Stream>
inline constexpr bool kWriting = std::is_same_v<Stream, BinaryWriter>;

// `T` is `X` on the read side of a walk and `const X` on the write side.
template <class T, class X>
concept Walks = std::same_as<std::remove_const_t<T>, X>;

// Longest string a walked field may carry.
inline constexpr std::uint32_t kMaxFieldString = 1u << 20;

// A field of any other type is a compile error, not a silent conversion.
template <class T>
void field(BinaryWriter&, const T&) = delete;
inline void field(BinaryWriter& w, const std::uint64_t& v) { w.u64(v); }
inline void field(BinaryReader& r, std::uint64_t& v) { v = r.u64(); }
inline void field(BinaryWriter& w, const std::int64_t& v) { w.i64(v); }
inline void field(BinaryReader& r, std::int64_t& v) { v = r.i64(); }
inline void field(BinaryWriter& w, const std::int32_t& v) { w.i32(v); }
inline void field(BinaryReader& r, std::int32_t& v) { v = r.i32(); }
inline void field(BinaryWriter& w, const double& v) { w.f64(v); }
inline void field(BinaryReader& r, double& v) { v = r.f64(); }
inline void field(BinaryWriter& w, const bool& v) { w.boolean(v); }
inline void field(BinaryReader& r, bool& v) { v = r.boolean(); }
inline void field(BinaryWriter& w, const std::string& v) { w.str(v); }
inline void field(BinaryReader& r, std::string& v) {
  v = r.str(kMaxFieldString);
}

// Several fields, in order.
template <class Stream, class... T>
void fields(Stream& s, T&... v) {
  (field(s, v), ...);
}

// An enum travels as one byte; the reader rejects a byte past `last`.
template <class E>
void enum_field(BinaryWriter& w, const E& v, E /*last*/, const char*) {
  w.u8(static_cast<std::uint8_t>(v));
}
template <class E>
void enum_field(BinaryReader& r, E& v, E last, const char* name) {
  const std::uint8_t b = r.u8();
  PDDL_CHECK(b <= static_cast<std::uint8_t>(last), r.what(), ": invalid ",
             name, " byte ", int{b});
  v = static_cast<E>(b);
}

// A u32 count, then each(stream, element) per element.  Both sides hold
// the count to `max`; the reader checks it before reserving anything.  A
// map is read pair by pair; a repeated key keeps the last value.
template <class C, class Each>
void seq(BinaryWriter& w, const C& v, std::uint32_t max, const char* name,
         Each each) {
  PDDL_CHECK(v.size() <= max, "cannot encode ", v.size(), " ", name,
             " entries: the bound is ", max);
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& e : v) each(w, e);
}
template <class C, class Each>
void seq(BinaryReader& r, C& v, std::uint32_t max, const char* name,
         Each each) {
  const std::uint32_t n = r.u32();
  PDDL_CHECK(n <= max, r.what(), ": ", n, " ", name,
             " entries exceed the bound of ", max);
  v.clear();
  if constexpr (requires { v.reserve(n); }) v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if constexpr (requires { v.emplace_back(); }) {
      each(r, v.emplace_back());
    } else {
      std::pair<typename C::key_type, typename C::mapped_type> kv;
      each(r, kv);
      v.insert_or_assign(std::move(kv.first), std::move(kv.second));
    }
  }
}

// A section's 4-byte magic and u32 version.  The writer emits `current`;
// the reader checks the magic and accepts versions oldest..current.  Both
// return the version in play.
inline std::uint32_t header(BinaryWriter& w, const char magic[4],
                            std::uint32_t /*oldest*/, std::uint32_t current,
                            const char*) {
  w.magic(magic);
  w.u32(current);
  return current;
}
inline std::uint32_t header(BinaryReader& r, const char magic[4],
                            std::uint32_t oldest, std::uint32_t current,
                            const char* name) {
  r.expect_magic(magic, name);
  const std::uint32_t version = r.u32();
  PDDL_CHECK(version >= oldest && version <= current, r.what(),
             ": unsupported ", name, " version ", version,
             " (this build reads versions ", oldest, "..", current, ")");
  return version;
}

}  // namespace pddl::io
