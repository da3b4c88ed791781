// Seeded byte mutation of the sweep pipeline's text readers: the lease
// offer, ack and plan-info files, the daemon reply, the plan spec and
// the result store. Each case starts from a pinned golden document
// (wire_goldens.hpp) and feeds its reader mutated copies: one byte
// flipped, inserted or deleted, a line duplicated, or the tail cut off.
// Every input must either be rejected (nullopt, or the reader's own
// exception) or reach a fixed point: writing the parsed value and
// parsing that again must succeed, and writing the second value must
// give the same bytes. Writers may canonicalize once (a reply's error
// text loses its tabs, an empty distribution name becomes the workload
// name), which is why the fixed point is taken after one write.
//
// The daemon's binary FrameReader gets the same mutations of a pinned
// three-frame stream, fed in seeded chunk sizes. Each run must yield
// frames that re-encode to the stream's own leading bytes and then
// either hold the rest as pending bytes, or end failed() with nothing
// pending and stay poisoned when fed more.
//
// One run covers kMutations inputs per reader from one seed
// (tests/seeded.hpp: `--gtest_random_seed=S --gtest_repeat=N` covers
// seeds S..S+N-1).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>

#include "common/socket.hpp"
#include "common/work_lease.hpp"
#include "measure/daemon.hpp"
#include "measure/plan_wire.hpp"
#include "measure/result_store.hpp"
#include "seeded.hpp"
#include "wire_goldens.hpp"

namespace am::measure {
namespace {

namespace fs = std::filesystem;

using test::escaped;
using test::mutate;
using test::repetition_seed;

constexpr int kMutations = 400;

/// `parse` turns bytes into a value (nullopt = rejected); `write` turns a
/// value back into bytes.
template <typename T>
void fuzz(std::uint64_t seed, const std::string& golden,
          const std::function<std::optional<T>(const std::string&)>& parse,
          const std::function<std::string(const T&)>& write) {
  std::mt19937_64 rng(seed);
  ASSERT_TRUE(parse(golden).has_value()) << "the golden itself must parse";
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutate(golden, rng);
    const std::optional<T> first = parse(input);
    if (!first) continue;
    ++accepted;
    const std::string bytes = write(*first);
    const std::optional<T> second = parse(bytes);
    ASSERT_TRUE(second.has_value())
        << "seed " << seed << " mutation " << i << ": the reader rejects "
        << "its own writer's bytes\n--- input\n" << escaped(input)
        << "--- written\n" << escaped(bytes);
    ASSERT_EQ(write(*second), bytes)
        << "seed " << seed << " mutation " << i << ": no fixed point\n"
        << "--- input\n" << escaped(input);
  }
  // Not a property, a sanity check on the mutator: some edits (a
  // duplicated line, a changed digit) must leave the document readable.
  EXPECT_GT(accepted, 0) << "seed " << seed;
}

class WireMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("am_wire_mutation_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    seed_ = repetition_seed();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Writes `text` to a scratch file and returns its path.
  std::string put(const std::string& name, const std::string& text) const {
    std::ofstream(path(name), std::ios::binary) << text;
    return path(name);
  }

  fs::path dir_;
  std::uint64_t seed_ = 0;
};

TEST_F(WireMutationTest, LeaseOffer) {
  for (const char* doc : {golden::kOfferBare, golden::kOfferFull})
    fuzz<LeaseOffer>(
        seed_, doc,
        [&](const std::string& text) {
          return read_lease_offer(put("in", text));
        },
        [&](const LeaseOffer& offer) {
          write_lease_offer(path("out"), offer);
          return golden::read_bytes(path("out"));
        });
}

TEST_F(WireMutationTest, LeaseAcks) {
  fuzz<LeaseAckFile>(
      seed_, golden::kAcks,
      [&](const std::string& text) {
        return read_lease_acks(put("in", text));
      },
      [&](const LeaseAckFile& file) {
        write_lease_acks(path("out"), file);
        return golden::read_bytes(path("out"));
      });
}

TEST_F(WireMutationTest, PlanInfo) {
  fuzz<PlanInfo>(
      seed_, golden::kPlanInfo,
      [&](const std::string& text) {
        return read_plan_info(put("in", text));
      },
      [&](const PlanInfo& info) {
        write_plan_info(path("out"), info);
        return golden::read_bytes(path("out"));
      });
}

TEST_F(WireMutationTest, DaemonReply) {
  fuzz<DaemonReply>(seed_, golden::kReply, parse_reply, encode_reply);
}

TEST_F(WireMutationTest, PlanSpec) {
  fuzz<PlanSpec>(
      seed_, golden::kPlanSpec,
      [](const std::string& text) -> std::optional<PlanSpec> {
        try {
          return parse_plan_spec(text);
        } catch (const std::invalid_argument&) {
          return std::nullopt;
        }
      },
      serialize_plan_spec);
}

TEST_F(WireMutationTest, ResultStore) {
  // The canonical file, then its run-time sidecar, each mutated with the
  // other intact. A bad sidecar is never a load error.
  const auto load = [&](const std::string& store, const std::string& times)
      -> std::optional<ResultStore> {
    put("in.tsv.times", times);
    try {
      return ResultStore::load(put("in.tsv", store));
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
  };
  const auto save = [&](const ResultStore& store) {
    fs::remove(path("out.tsv.times"));
    store.save(path("out.tsv"));
  };
  fuzz<ResultStore>(
      seed_, golden::kStore,
      [&](const std::string& text) {
        return load(text, golden::kStoreTimes);
      },
      [&](const ResultStore& store) {
        save(store);
        return golden::read_bytes(path("out.tsv"));
      });
  fuzz<ResultStore>(
      seed_, golden::kStoreTimes,
      [&](const std::string& times) { return load(golden::kStore, times); },
      [&](const ResultStore& store) {
        save(store);
        return golden::read_bytes(path("out.tsv.times"));
      });
}

TEST_F(WireMutationTest, FrameReader) {
  EXPECT_EQ(encode_frame({1, "hello"}) + encode_frame({2, ""}) +
                encode_frame({0x103, std::string("a\tb\n\0\xff", 6)}),
            golden::kFrames);
  std::mt19937_64 rng(seed_);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  const std::string golden_frames(golden::kFrames);
  int clean = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string input =
        i == 0 ? golden_frames : mutate(golden_frames, rng);
    FrameReader reader;
    std::string consumed;  // the frames read so far, re-encoded
    for (std::size_t at = 0; at < input.size();) {
      const std::size_t n = std::min(pick(1, 24), input.size() - at);
      reader.feed(input.data() + at, n);
      at += n;
      while (const auto frame = reader.next()) consumed += encode_frame(*frame);
    }
    const auto context = [&] {
      return "seed " + std::to_string(seed_) + " mutation " +
             std::to_string(i) + "\n--- input\n" + escaped(input);
    };
    ASSERT_EQ(input.compare(0, consumed.size(), consumed), 0)
        << "frames that are not the stream's own bytes: " << context();
    if (i == 0) {
      ASSERT_EQ(consumed, golden_frames) << "the golden stream, in chunks";
    }
    if (!reader.failed()) {
      ASSERT_EQ(reader.pending_bytes(), input.size() - consumed.size())
          << context();
      clean += i > 0 ? 1 : 0;
      continue;
    }
    EXPECT_FALSE(reader.error().empty()) << context();
    EXPECT_EQ(reader.pending_bytes(), 0u) << context();
    reader.feed(golden_frames.data(), golden_frames.size());
    EXPECT_FALSE(reader.next().has_value()) << "revived: " << context();
    EXPECT_TRUE(reader.failed()) << context();
    EXPECT_EQ(reader.pending_bytes(), 0u) << context();
  }
  // A sanity check on the mutator, as in fuzz(): some edits (a changed
  // payload byte, a cut at a frame boundary) must leave the stream whole.
  EXPECT_GT(clean, 0) << "seed " << seed_;
}

}  // namespace
}  // namespace am::measure
