// Round-trip and adversarial tests for the src/io/ layer: binary
// primitives, tensor payloads, and the snapshot container.  The adversarial
// half asserts the layer's core promise — truncation, bit flips, bad magic,
// and version skew all surface as clean pddl::Error, never as garbage state.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ghn/ghn2.hpp"
#include "io/binary.hpp"
#include "io/snapshot.hpp"
#include "io/tensor_io.hpp"
#include "simulator/measurement_io.hpp"

namespace pddl::io {
namespace {

TEST(Binary, PrimitivesRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(3.14159);
  w.f64(-0.0);
  w.boolean(true);
  w.str("hello, snapshot");
  w.str("");
  w.magic("PDXX");

  BinaryReader r(ss, "test");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.f64(), -0.0);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello, snapshot");
  EXPECT_EQ(r.str(), "");
  EXPECT_NO_THROW(r.expect_magic("PDXX", "test"));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(r.bytes_read(), w.bytes_written());
}

TEST(Binary, NonFiniteDoublesAreBitExact) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-std::numeric_limits<double>::infinity());
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.f64(std::numeric_limits<double>::denorm_min());

  BinaryReader r(ss, "test");
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.f64(), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
}

TEST(Binary, LittleEndianOnTheWire) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.u32(0x01020304u);
  const std::string bytes = ss.str();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

TEST(Binary, CrcMatchesKnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xcbf43926.
  const char* s = "123456789";
  const std::uint32_t crc = crc32_update(0xffffffffu, s, 9) ^ 0xffffffffu;
  EXPECT_EQ(crc, 0xcbf43926u);
}

// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
// table-driven crc32_update must match on every input.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t n) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Binary, CrcMatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(7);
  std::vector<unsigned char> bytes(300 + 8);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = bytes.data() + offset;
      EXPECT_EQ(crc32_update(0xffffffffu, p, len) ^ 0xffffffffu,
                bitwise_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Binary, CrcSplitAcrossUpdatesEqualsOneShot) {
  Rng rng(11);
  std::vector<unsigned char> bytes(1000);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  }
  const std::uint32_t one_shot =
      crc32_update(0xffffffffu, bytes.data(), bytes.size());
  for (std::size_t chunk : {1u, 3u, 7u, 8u, 9u, 64u, 333u}) {
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t at = 0; at < bytes.size(); at += chunk) {
      crc = crc32_update(crc, bytes.data() + at,
                         std::min(chunk, bytes.size() - at));
    }
    EXPECT_EQ(crc, one_shot) << "chunk " << chunk;
  }
}

TEST(Binary, BufferModeMatchesStreamMode) {
  auto write_all = [](BinaryWriter& w) {
    w.magic("PDXX");
    w.u32(0xdeadbeefu);
    w.str("in-memory and streamed bytes must agree");
    w.f64(-2.5);
    w.finish_crc();
    w.u64(42);
  };
  std::stringstream ss;
  BinaryWriter sw(ss);
  write_all(sw);
  std::string buf = "prefix";  // the writer appends after existing bytes
  BinaryWriter bw(buf);
  write_all(bw);
  ASSERT_EQ(buf.substr(6), ss.str());
  EXPECT_EQ(bw.bytes_written(), sw.bytes_written());
  EXPECT_EQ(bw.crc(), sw.crc());

  const std::string bytes = ss.str();
  BinaryReader r(bytes.data(), bytes.size(), "borrowed");
  BinaryReader s(ss, "stream");
  for (BinaryReader* x : {&r, &s}) {
    x->expect_magic("PDXX", "test");
    EXPECT_EQ(x->u32(), 0xdeadbeefu);
    EXPECT_EQ(x->str(), "in-memory and streamed bytes must agree");
    EXPECT_EQ(x->f64(), -2.5);
    EXPECT_NO_THROW(x->verify_crc());
    EXPECT_EQ(x->u64(), 42u);
    EXPECT_TRUE(x->at_end());
  }
  EXPECT_EQ(r.crc(), s.crc());
  EXPECT_EQ(r.bytes_read(), s.bytes_read());
  EXPECT_THROW((void)r.u8(), Error);
}

TEST(Binary, CrcTrailerRoundTrips) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.str("payload");
  w.u64(7);
  w.finish_crc();

  BinaryReader r(ss, "test");
  EXPECT_EQ(r.str(), "payload");
  EXPECT_EQ(r.u64(), 7u);
  EXPECT_NO_THROW(r.verify_crc());
  EXPECT_TRUE(r.at_end());
}

TEST(Binary, SingleFlippedBitFailsCrc) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.str("payload");
  w.u64(7);
  w.finish_crc();
  std::string bytes = ss.str();
  // Flip one bit somewhere in the payload (not the trailer).
  bytes[5] = static_cast<char>(bytes[5] ^ 0x10);

  BinaryReader r(std::move(bytes), "test");
  (void)r.str();
  (void)r.u64();
  EXPECT_THROW(r.verify_crc(), Error);
}

TEST(Binary, TruncationIsACleanError) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.str("a fairly long string so truncation lands inside it");
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);

  BinaryReader r(std::move(bytes), "test");
  EXPECT_THROW((void)r.str(), Error);
}

TEST(Binary, OversizedStringPrefixRejectedBeforeAllocating) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.u32(0xfffffff0u);  // absurd length prefix, no such bytes follow
  BinaryReader r(ss, "test");
  EXPECT_THROW((void)r.str(), Error);
}

TEST(Binary, WrongMagicNamesTheFormat) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.magic("XXXX");
  BinaryReader r(ss, "test");
  try {
    r.expect_magic("PDCG", "graph");
    FAIL() << "expected magic mismatch to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("graph"), std::string::npos);
  }
}

TEST(TensorIo, RandomVectorsAndMatricesRoundTripBitExact) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = rng.uniform_int(std::uint64_t{1}, 40);
    Vector v(n);
    for (double& x : v) x = rng.gaussian() * 1e6;
    const std::size_t rows = rng.uniform_int(std::uint64_t{1}, 12);
    const std::size_t cols = rng.uniform_int(std::uint64_t{1}, 12);
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
    }

    std::stringstream ss;
    BinaryWriter w(ss);
    write_vector(w, v);
    write_matrix(w, m);

    BinaryReader r(ss, "test");
    const Vector v2 = read_vector(r);
    const Matrix m2 = read_matrix(r);
    ASSERT_EQ(v2.size(), v.size());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(v2[i], v[i]);
    ASSERT_EQ(m2.rows(), rows);
    ASSERT_EQ(m2.cols(), cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) EXPECT_EQ(m2(i, j), m(i, j));
    }
  }
}

TEST(TensorIo, EmptyVectorRoundTrips) {
  std::stringstream ss;
  BinaryWriter w(ss);
  write_vector(w, Vector{});
  BinaryReader r(ss, "test");
  EXPECT_TRUE(read_vector(r).empty());
}

std::vector<sim::Measurement> random_measurements(Rng& rng, std::size_t n) {
  std::vector<sim::Measurement> ms;
  for (std::size_t i = 0; i < n; ++i) {
    sim::Measurement m;
    m.model = "model_" + std::to_string(rng.uniform_int(std::uint64_t{100}));
    m.dataset = rng.uniform() < 0.5 ? "cifar10" : "tiny_imagenet";
    m.sku = "sku" + std::to_string(i);
    m.servers = static_cast<int>(rng.uniform_int(std::uint64_t{1}, 16));
    m.batch_size = 32;
    m.epochs = static_cast<int>(rng.uniform_int(std::uint64_t{1}, 90));
    m.time_s = rng.uniform(1.0, 1e5);
    m.expected_s = rng.uniform(1.0, 1e5);
    m.model_params = static_cast<std::int64_t>(rng.uniform_int(1u << 30));
    m.model_flops = static_cast<std::int64_t>(rng.uniform_int(1u << 30));
    m.model_layers = static_cast<int>(rng.uniform_int(std::uint64_t{1}, 200));
    m.model_depth = m.model_layers / 2;
    m.model_index = static_cast<int>(rng.uniform_int(std::int64_t{-1}, 10));
    const char* strategies[] = {"dp", "pp2x4", "tp2"};
    m.parallelism = strategies[rng.uniform_int(std::uint64_t{3})];
    m.cluster_features.resize(rng.uniform_int(std::uint64_t{1}, 8));
    for (double& f : m.cluster_features) f = rng.gaussian();
    ms.push_back(std::move(m));
  }
  return ms;
}

TEST(MeasurementIo, BinarySectionRoundTripsBitExact) {
  Rng rng(7);
  const auto ms = random_measurements(rng, 50);
  std::stringstream ss;
  BinaryWriter w(ss);
  sim::save_measurements(w, ms);
  BinaryReader r(ss, "test");
  const auto loaded = sim::load_measurements(r);
  ASSERT_EQ(loaded.size(), ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(loaded[i].model, ms[i].model);
    EXPECT_EQ(loaded[i].dataset, ms[i].dataset);
    EXPECT_EQ(loaded[i].sku, ms[i].sku);
    EXPECT_EQ(loaded[i].servers, ms[i].servers);
    EXPECT_EQ(loaded[i].time_s, ms[i].time_s);  // bit-exact, not approximate
    EXPECT_EQ(loaded[i].expected_s, ms[i].expected_s);
    EXPECT_EQ(loaded[i].model_flops, ms[i].model_flops);
    EXPECT_EQ(loaded[i].model_index, ms[i].model_index);
    EXPECT_EQ(loaded[i].parallelism, ms[i].parallelism);
    EXPECT_EQ(loaded[i].cluster_features, ms[i].cluster_features);
  }
}

// A v1 binary section (written before the parallelism-strategy column
// existed) loads with every row defaulting to data parallelism.
TEST(MeasurementIo, Version1SectionLoadsWithDataParallelDefault) {
  std::stringstream ss;
  BinaryWriter w(ss);
  constexpr char kMsMagic[4] = {'P', 'D', 'M', 'S'};
  w.magic(kMsMagic);
  w.u32(1);  // v1: no parallelism field after model_index
  w.u64(1);
  w.str("resnet18");
  w.str("cifar10");
  w.str("p100");
  w.i32(4);       // servers
  w.i32(64);      // batch
  w.i32(10);      // epochs
  w.f64(123.5);   // time_s
  w.f64(120.0);   // expected_s
  w.i64(11'000'000);
  w.i64(2'000'000'000);
  w.i32(21);      // layers
  w.i32(18);      // depth
  w.i32(5);       // model_index
  write_vector(w, Vector{1.0, 2.0});

  BinaryReader r(ss, "test");
  const auto loaded = sim::load_measurements(r);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].model, "resnet18");
  EXPECT_EQ(loaded[0].parallelism, "dp");
  EXPECT_EQ(loaded[0].time_s, 123.5);
}

TEST(MeasurementIo, FutureBinaryVersionRejected) {
  Rng rng(3);
  const auto ms = random_measurements(rng, 2);
  std::stringstream ss;
  BinaryWriter w(ss);
  sim::save_measurements(w, ms);
  std::string bytes = ss.str();
  bytes[4] = 9;  // little-endian u32 version right after "PDMS"
  std::stringstream future(bytes);
  BinaryReader r(future, "test");
  EXPECT_THROW(sim::load_measurements(r), Error);
}

TEST(MeasurementIo, CsvRoundTripsParallelismColumn) {
  Rng rng(11);
  auto ms = random_measurements(rng, 20);
  for (auto& m : ms) m.cluster_features = {0.5, -1.5, 2.0};  // uniform width
  std::stringstream ss;
  sim::save_measurements_csv(ss, ms);
  const auto loaded = sim::load_measurements_csv(ss);
  ASSERT_EQ(loaded.size(), ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(loaded[i].model, ms[i].model);
    EXPECT_EQ(loaded[i].parallelism, ms[i].parallelism);
    EXPECT_EQ(loaded[i].cluster_features, ms[i].cluster_features);
  }
}

// Old CSV exports predate the parallelism column; the header decides.
TEST(MeasurementIo, LegacyCsvWithoutParallelismColumnLoads) {
  std::stringstream ss;
  ss << "model,dataset,sku,servers,batch_size,epochs,time_s,expected_s,"
        "model_params,model_flops,model_layers,model_depth,cf0\n"
     << "alexnet,cifar10,p100,4,64,10,100.5,99.0,61000000,700000000,8,8,1.25\n";
  const auto loaded = sim::load_measurements_csv(ss);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].model, "alexnet");
  EXPECT_EQ(loaded[0].parallelism, "dp");
  ASSERT_EQ(loaded[0].cluster_features.size(), 1u);
  EXPECT_EQ(loaded[0].cluster_features[0], 1.25);
  EXPECT_EQ(loaded[0].model_index, 0);  // alexnet is registry slot 0
}

TEST(Snapshot, SectionsRoundTripInOrder) {
  SnapshotWriter snap;
  snap.add("alpha").str("first");
  snap.add("beta/nested").u64(99);
  {
    BinaryWriter& w = snap.add("gamma");
    write_vector(w, Vector{1.5, -2.5});
  }

  std::stringstream ss;
  snap.save(ss);

  SnapshotReader loaded(ss, "test");
  EXPECT_EQ(loaded.names(),
            (std::vector<std::string>{"alpha", "beta/nested", "gamma"}));
  EXPECT_TRUE(loaded.has("beta/nested"));
  EXPECT_FALSE(loaded.has("delta"));
  BinaryReader a = loaded.reader("alpha");
  EXPECT_EQ(a.str(), "first");
  BinaryReader b = loaded.reader("beta/nested");
  EXPECT_EQ(b.u64(), 99u);
  BinaryReader g = loaded.reader("gamma");
  const Vector v = read_vector(g);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 1.5);
  EXPECT_EQ(v[1], -2.5);
}

TEST(Snapshot, ShortSectionReadsThroughMovedReader) {
  // Payloads under 16 bytes fit in a std::string's inline buffer, whose
  // bytes move with the string; the reader returned by value must keep
  // pointing at live bytes however often it is moved.
  SnapshotWriter snap;
  snap.add("short").u64(0x0123456789abcdefull);
  std::stringstream ss;
  snap.save(ss);
  SnapshotReader loaded(ss, "test");

  std::vector<BinaryReader> readers;
  readers.push_back(loaded.reader("short"));
  readers.reserve(16);  // reallocates: every reader is moved
  BinaryReader r = std::move(readers.front());
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.at_end());
  EXPECT_THROW((void)r.u8(), Error);
}

TEST(Snapshot, EmptySnapshotIsValid) {
  SnapshotWriter snap;
  std::stringstream ss;
  snap.save(ss);
  SnapshotReader loaded(ss, "test");
  EXPECT_TRUE(loaded.names().empty());
}

TEST(Snapshot, DuplicateSectionNameRejectedAtWrite) {
  SnapshotWriter snap;
  snap.add("dup");
  EXPECT_THROW(snap.add("dup"), Error);
}

TEST(Snapshot, MissingSectionIsACleanError) {
  SnapshotWriter snap;
  snap.add("present");
  std::stringstream ss;
  snap.save(ss);
  SnapshotReader loaded(ss, "test");
  EXPECT_THROW((void)loaded.reader("absent"), Error);
}

std::string valid_snapshot_bytes() {
  SnapshotWriter snap;
  snap.add("section").str("some payload content");
  std::stringstream ss;
  snap.save(ss);
  return ss.str();
}

TEST(Snapshot, FlippedMagicRejected) {
  std::string bytes = valid_snapshot_bytes();
  bytes[0] = 'X';
  std::stringstream ss(bytes);
  EXPECT_THROW(SnapshotReader(ss, "test"), Error);
}

TEST(Snapshot, FutureVersionRejectedWithReadableMessage) {
  std::string bytes = valid_snapshot_bytes();
  bytes[4] = 77;  // little-endian u32 version field right after the magic
  std::stringstream ss(bytes);
  try {
    SnapshotReader loaded(ss, "test");
    FAIL() << "expected version check to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Snapshot, TruncatedFileRejected) {
  const std::string bytes = valid_snapshot_bytes();
  // Every possible truncation point must fail cleanly — header, name,
  // payload, and trailer truncations all land here.
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::stringstream ss(bytes.substr(0, keep));
    EXPECT_THROW(SnapshotReader(ss, "test"), Error) << "kept " << keep;
  }
}

TEST(Snapshot, AnyCorruptedByteRejected) {
  const std::string bytes = valid_snapshot_bytes();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    std::stringstream ss(mutated);
    EXPECT_THROW(SnapshotReader(ss, "test"), Error) << "byte " << pos;
  }
}

TEST(Snapshot, TrailingGarbageRejected) {
  std::string bytes = valid_snapshot_bytes();
  bytes += "extra";
  std::stringstream ss(bytes);
  EXPECT_THROW(SnapshotReader(ss, "test"), Error);
}

// Generation `gen` of the crash test's snapshot: the generation number and
// a large payload whose every byte is derived from it.
constexpr std::size_t kCrashPayloadBytes = 8u << 20;

char crash_fill(std::uint64_t gen) { return static_cast<char>('a' + gen % 26); }

void save_generation(const std::string& path, std::uint64_t gen) {
  SnapshotWriter snap;
  snap.add("gen").u64(gen);
  const std::string payload(kCrashPayloadBytes, crash_fill(gen));
  snap.add("payload").raw(payload.data(), payload.size());
  snap.save_file(path);
}

// Eight times: a forked child calls save(path, gen) for gen = 1, 2, ... back
// to back and is SIGKILLed at a seeded moment in its first few saves
// (before the first rename, mid-write, mid-fsync or between saves); then
// expect_whole(path) checks that `path` holds one whole generation.
template <class Save, class ExpectWhole>
void kill_mid_save_rounds(const std::string& path, Save save,
                          ExpectWhole expect_whole) {
  save(path, 0);
  Rng rng(2023);
  for (int round = 0; round < 8; ++round) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Bounded, so a child orphaned by a failing parent still ends.
      for (std::uint64_t gen = 1; gen < 100000; ++gen) save(path, gen);
      ::_exit(0);
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.uniform_int(0, 60000)));
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status)) << "round " << round;
    SCOPED_TRACE("round " + std::to_string(round));
    expect_whole(path);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

std::string crash_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + std::to_string(::getpid()) + ".pddl"))
      .string();
}

TEST(Snapshot, SaveFileSurvivesSigkillMidSave) {
  kill_mid_save_rounds(
      crash_path("pddl_crash_safe_"), save_generation,
      [](const std::string& path) {
        SnapshotReader snap(path);
        const std::uint64_t gen = snap.reader("gen").u64();
        BinaryReader r = snap.reader("payload");
        std::string payload(kCrashPayloadBytes, '\0');
        r.raw(payload.data(), payload.size());
        EXPECT_EQ(payload, std::string(kCrashPayloadBytes, crash_fill(gen)))
            << "generation " << gen;
      });
}

// The standalone GHN file goes through the same temp → fsync → rename path:
// a ~1M-parameter GHN (about 8 MB on disk) whose every parameter holds its
// generation number reads back whole, with one value throughout.
TEST(Snapshot, SaveGhnFileSurvivesSigkillMidSave) {
  ghn::GhnConfig cfg;
  cfg.hidden_dim = 256;
  cfg.mlp_hidden = 256;
  Rng init(7);
  ghn::Ghn2 net(cfg, init);
  kill_mid_save_rounds(
      crash_path("pddl_crash_safe_ghn_"),
      [&net](const std::string& path, std::uint64_t gen) {
        for (Matrix* p : net.parameters()) {
          std::fill(p->data(), p->data() + p->size(), static_cast<double>(gen));
        }
        ghn::save_ghn(path, net);
      },
      [](const std::string& path) {
        const std::unique_ptr<ghn::Ghn2> back = ghn::load_ghn(path);
        const std::vector<const Matrix*> params =
            std::as_const(*back).parameters();
        ASSERT_FALSE(params.empty());
        const double gen = params.front()->data()[0];
        std::size_t scalars = 0;
        for (const Matrix* p : params) {
          scalars += p->size();
          for (std::size_t i = 0; i < p->size(); ++i) {
            ASSERT_EQ(p->data()[i], gen);
          }
        }
        EXPECT_GT(scalars, 500000u);
      });
}

}  // namespace
}  // namespace pddl::io
