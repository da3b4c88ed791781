#pragma once
// Literal bytes of the sweep pipeline's text formats, as their writers
// emit them for the fixed inputs built in the suites that include this
// header (result_store_test, plan_wire_test, lease_worker_test,
// amsweepd_test; the binary frame stream in wire_mutation_test). Each is
// pinned by a byte-equality test there and is a seed document for
// wire_mutation_test. Host- and timing-dependent
// documents (the two manifests) are pinned by their row shape instead.
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace am::measure::golden {

inline constexpr const char* kStore =
    "#am-result-store v1\n"
    "34bdfa5d42bb0739\tdeadbeefdeadbeef\tm-fingerprint\tw\tbandwidth\t2\t"
    "cs:b4096:n4:w1000000\t7\t1000000\t0x1.3333333333334p-2\t123456\t1000\t"
    "0\t0\t0\t0\t0\t0\t0\t0\t4928\t0\t0\t0x1.5555555555555p-2\t"
    "0x1.4dc938p+31\t0x1.4dc938p+32\t2\t0\n"
    "c0411d8daf096ae1\tdeadbeefdeadbeef\tm-fingerprint\tw\tcache-storage\t"
    "0\tnone\t7\t1000000\t0x1.2492492492492p-3\t123456\t1000\t0\t0\t0\t0\t"
    "0\t0\t0\t0\t4928\t0\t0\t0x1.5555555555555p-2\t0x1.4dc938p+31\t"
    "0x1.4dc938p+32\t2\t1\n";
inline constexpr const char* kStoreTimes =
    "#am-run-times v1\n"
    "34bdfa5d42bb0739\t0x1p-1\n"
    "c0411d8daf096ae1\t0x1.5555555555555p-2\n";
inline constexpr const char* kPlanSpec =
    "#am-plan-spec v1\n"
    "machine\tscale\t512\tnodes\t2\tbackend\tbanked\n"
    "run\tseed\t42\tmax_cycles\t123456789\tmix_seed\t1\n"
    "cs\t8192\t4\n"
    "bw\t4096\t11\t17\t20\t8\n"
    "workload\tsynthetic\tuni-64\tuni-64\tuniform\t64\t0x0p+0\t0x0p+0\t4\t"
    "1\t0\t500\n"
    "workload\tsynthetic\tnorm-128\tnormal mu=64 sigma=16\tnormal\t128\t"
    "0x1p+6\t0x1p+4\t4\t1\t0\t400\n"
    "workload\tmcb\tmcb-p2000\t4\t2\t2000\t1\t8\n"
    "workload\tlulesh\tlulesh-e6\t8\t4\t6\t0\t16\n"
    "point\t0\tcache-storage\t0\n"
    "point\t0\tcache-storage\t2\n"
    "point\t1\tbandwidth\t3\n"
    "point\t2\tcache-storage\t1\n"
    "point\t3\tbandwidth\t1\n"
    "end\n";
inline constexpr const char* kOfferBare =
    "#am-work-lease v1\n"
    "lease\t3\n"
    "done\t0\n"
    "cost\t0x1.4p+1\n"
    "points\t5\t0\t2\n";
inline constexpr const char* kOfferFull =
    "#am-work-lease v1\n"
    "lease\t3\n"
    "done\t0\n"
    "cost\t0x1.4p+1\n"
    "plan\t/srv/sweepd/job 7.plan\n"
    "seed_store\t/srv/results/fig9.tsv\n"
    "points\t5\t0\t2\n";
inline constexpr const char* kAcks =
    "#am-lease-ack v1\n"
    "lease\t4\n"
    "points\t3\n"
    "executed\t2\n"
    "wall\t0x1.999999999999ap-4\n"
    "lease\t7\n"
    "points\t1\n"
    "executed\t0\n"
    "wall\t0x1.5555555555555p-2\n"
    "ready\t9\n";
inline constexpr const char* kPlanInfo =
    "#am-plan-info v1\n"
    "points\t4\n"
    "cost\t0\t0x1p+0\n"
    "cost\t1\t0x1.4p+1\n"
    "cost\t2\t0x1.999999999999ap-4\n"
    "cost\t3\t0x0p+0\n";
inline constexpr const char* kReply =
    "#am-reply v1\n"
    "ok\t0\n"
    "retry\t1\n"
    "job\t42\n"
    "state\tfailed\n"
    "points\t17\n"
    "done\t5\n"
    "executed\t3\n"
    "error\tworker 1 exited: status 3 see the log\n";
inline constexpr const char* kQueue =
    "#am-sweepd-queue v1\n"
    "next_job\t3\n"
    "job\t1\talice\tqueued\t2\t0\t\n"
    "job\t2\tbob\tcancelled\t2\t0\t\n";
// Three daemon frames back to back, as encode_frame writes them: a
// 16-byte header ("AMSW", version 1, type, payload length, little-endian)
// and the payload. Pinned in wire_mutation_test; binary, so sized
// explicitly.
inline constexpr char kFrameBytes[] =
    "AMSW\x01\x00\x01\x00" "\x05\x00\x00\x00\x00\x00\x00\x00" "hello"
    "AMSW\x01\x00\x02\x00" "\x00\x00\x00\x00\x00\x00\x00\x00"
    "AMSW\x01\x00\x03\x01" "\x06\x00\x00\x00\x00\x00\x00\x00" "a\tb\n\x00\xff";
inline constexpr std::string_view kFrames{kFrameBytes,
                                          sizeof(kFrameBytes) - 1};

/// The whole file, byte for byte ("" when absent).
inline std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A line document's shape: its header line, then "<key>/<field count>"
/// per record line, for documents whose values vary run to run.
inline std::string row_shape(const std::string& text) {
  std::istringstream in(text);
  std::string line, out;
  for (bool first = true; std::getline(in, line); first = false) {
    if (first) {
      out += line + '\n';
      continue;
    }
    std::size_t fields = 1;
    for (const char c : line) fields += c == '\t';
    out += line.substr(0, line.find('\t')) + '/' + std::to_string(fields) +
           '\n';
  }
  return out;
}

}  // namespace am::measure::golden
