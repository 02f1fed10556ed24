// Microbenchmarks of the crypto substrate: these are the primitive costs
// every figure decomposes into — per-entry AES-CTR + CMAC (ShieldStore's op
// cost), the interleaved batch CMAC used by scrub verification, the
// session channel's Seal + Open per served record, and the keyed hashes on
// the lookup path.
//
// CTR and CMAC run at BOTH backends (table reference and AES-NI when the
// CPU has it) in one invocation and the per-size GB/s plus hardware/table
// speedup ratios land in BENCH_crypto.json. Exit code gates the tentpole
// target: >= 2x on CTR and CMAC at the largest size when AES-NI is
// available (always 0 when it is not, so table-only machines still run the
// bench for trajectory numbers).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/crypto/aes.h"
#include "src/crypto/cmac.h"
#include "src/crypto/cpu.h"
#include "src/crypto/ctr.h"
#include "src/crypto/sha256.h"
#include "src/crypto/siphash.h"
#include "src/net/channel.h"

namespace shield::crypto {
namespace {

const AesKey kKey = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};

// Repeats fn(bytes-per-call) until `seconds` elapse; returns GB/s.
template <typename Fn>
double Throughput(double seconds, size_t bytes_per_call, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  // Warm-up pass so first-touch and schedule-cache effects don't skew short
  // smoke windows.
  fn();
  uint64_t calls = 0;
  const auto start = clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(seconds));
  auto now = start;
  do {
    for (int i = 0; i < 8; ++i) {
      fn();
    }
    calls += 8;
    now = clock::now();
  } while (now < deadline);
  const double elapsed = std::chrono::duration<double>(now - start).count();
  const double bytes = static_cast<double>(calls) * static_cast<double>(bytes_per_call);
  return elapsed > 0 ? bytes / elapsed / 1e9 : 0;
}

double BenchCtr(AesBackend backend, size_t size, double seconds) {
  Bytes data(size, 0xAB);
  Aes128 aes(ByteSpan(kKey.data(), kKey.size()), backend);
  uint8_t ctr[16] = {};
  return Throughput(seconds, size, [&] { AesCtrTransform(aes, ctr, 32, data, data); });
}

double BenchCmac(AesBackend backend, size_t size, double seconds) {
  Bytes data(size, 0xCD);
  CmacKey key(ByteSpan(kKey.data(), kKey.size()), backend);
  volatile uint8_t sink = 0;
  const double gbps = Throughput(seconds, size, [&] {
    Cmac cmac(key);
    cmac.Update(data);
    sink = cmac.Finalize()[0];
  });
  (void)sink;
  return gbps;
}

// The session-channel shape of one served op: the peer Seals a record of
// `size` bytes and the other side Opens it, each holding its expanded session
// keys. Returns GB/s of payload; one call is one Seal + one Open.
double BenchSessionRecord(AesBackend backend, size_t size, double seconds) {
  Bytes key_material(net::SessionCrypto::kKeyMaterialSize, 0x3C);
  net::SessionCrypto sender(key_material, /*is_client=*/true, /*encrypt=*/true, backend);
  net::SessionCrypto receiver(key_material, /*is_client=*/false, /*encrypt=*/true, backend);
  Bytes payload(size, 0x42);
  volatile size_t sink = 0;
  const double gbps = Throughput(seconds, size, [&] {
    Result<Bytes> opened = receiver.Open(sender.Seal(payload));
    sink = opened.ok() ? opened->size() : 0;
  });
  (void)sink;
  return gbps;
}

// The scrub-path shape: kCmacBatchLanes independent messages signed with
// interleaved lanes off one shared key schedule.
double BenchCmacBatch(AesBackend backend, size_t size, double seconds) {
  Bytes data(size, 0xEF);
  CmacKey key(ByteSpan(kKey.data(), kKey.size()), backend);
  CmacMessage msgs[kCmacBatchLanes];
  for (size_t i = 0; i < kCmacBatchLanes; ++i) {
    msgs[i].Append(ByteSpan(data.data(), data.size()));
  }
  Mac tags[kCmacBatchLanes];
  volatile uint8_t sink = 0;
  const double gbps = Throughput(seconds, size * kCmacBatchLanes, [&] {
    CmacSignBatch(key, std::span<const CmacMessage>(msgs, kCmacBatchLanes), tags);
    sink = tags[0][0];
  });
  (void)sink;
  return gbps;
}

std::string Fmt(double v, const char* spec = "%.3f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

int Run(double seconds, const std::string& out_path) {
  const bool have_hw = AesNiAvailable();
  std::vector<AesBackend> backends = {AesBackend::kTable};
  if (have_hw) {
    backends.push_back(AesBackend::kAesNi);
  }
  const std::vector<size_t> sizes = {64, 256, 1024, 4096};

  std::printf("# micro crypto: active backend %s, aes-ni %s\n",
              AesBackendName(ActiveAesBackend()), have_hw ? "available" : "unavailable");
  std::printf("%-12s %-10s %8s %12s\n", "op", "backend", "size", "GB/s");

  std::string json = "{\n  \"bench\": \"crypto\",\n  \"aesni_available\": ";
  json += have_hw ? "true" : "false";
  json += ",\n  \"active_backend\": \"";
  json += AesBackendName(ActiveAesBackend());
  json += "\",\n  \"results\": [\n";

  // speedups[op][size] -> hw/table ratio, filled as both backends report.
  double ctr_speedup = 0, cmac_speedup = 0, batch_speedup = 0;
  double table_ctr = 0, table_cmac = 0, table_batch = 0;
  bool first = true;
  for (AesBackend backend : backends) {
    for (const char* op : {"ctr", "cmac", "cmac_batch"}) {
      for (size_t size : sizes) {
        double gbps = 0;
        if (std::strcmp(op, "ctr") == 0) {
          gbps = BenchCtr(backend, size, seconds);
        } else if (std::strcmp(op, "cmac") == 0) {
          gbps = BenchCmac(backend, size, seconds);
        } else {
          gbps = BenchCmacBatch(backend, size, seconds);
        }
        std::printf("%-12s %-10s %8zu %12s\n", op, AesBackendName(backend), size,
                    Fmt(gbps).c_str());
        json += std::string(first ? "" : ",\n") + "    {\"op\": \"" + op + "\", \"backend\": \"" +
                AesBackendName(backend) + "\", \"size\": " + std::to_string(size) +
                ", \"gbps\": " + Fmt(gbps) + "}";
        first = false;
        if (size == sizes.back()) {
          if (backend == AesBackend::kTable) {
            (std::strcmp(op, "ctr") == 0      ? table_ctr
             : std::strcmp(op, "cmac") == 0   ? table_cmac
                                              : table_batch) = gbps;
          } else if (table_ctr > 0 || table_cmac > 0 || table_batch > 0) {
            if (std::strcmp(op, "ctr") == 0 && table_ctr > 0) {
              ctr_speedup = gbps / table_ctr;
            } else if (std::strcmp(op, "cmac") == 0 && table_cmac > 0) {
              cmac_speedup = gbps / table_cmac;
            } else if (std::strcmp(op, "cmac_batch") == 0 && table_batch > 0) {
              batch_speedup = gbps / table_batch;
            }
          }
        }
      }
    }
  }

  // Session channel: Seal + Open of a 48 B request and a 160 B response (the
  // cache workload's frame sizes), per backend, reported per record pair.
  for (AesBackend backend : backends) {
    for (size_t size : {48, 160}) {
      const double gbps = BenchSessionRecord(backend, size, seconds);
      const double ns = gbps > 0 ? static_cast<double>(size) / gbps : 0;
      std::printf("%-12s %-10s %8zu %12s  (%s ns per seal+open)\n", "session",
                  AesBackendName(backend), size, Fmt(gbps).c_str(), Fmt(ns, "%.0f").c_str());
      json += ",\n    {\"op\": \"session_seal_open\", \"backend\": \"" +
              std::string(AesBackendName(backend)) + "\", \"size\": " + std::to_string(size) +
              ", \"gbps\": " + Fmt(gbps) + ", \"ns_per_seal_open\": " + Fmt(ns, "%.0f") + "}";
    }
  }

  // Single-run reference numbers for the non-AES primitives on the lookup
  // path (no backend dimension).
  {
    Bytes data(4096, 0x5A);
    volatile uint8_t sink = 0;
    const double sha = Throughput(seconds, data.size(), [&] { sink = Sha256Hash(data)[0]; });
    SipHashKey sip_key{};
    sip_key[0] = 7;
    Bytes sip_data(64, 0x11);
    volatile uint64_t sink64 = 0;
    const double sip =
        Throughput(seconds, sip_data.size(), [&] { sink64 = SipHash24(sip_key, sip_data); });
    (void)sink;
    (void)sink64;
    std::printf("%-12s %-10s %8d %12s\n", "sha256", "-", 4096, Fmt(sha).c_str());
    std::printf("%-12s %-10s %8d %12s\n", "siphash", "-", 64, Fmt(sip).c_str());
    json += ",\n    {\"op\": \"sha256\", \"backend\": \"-\", \"size\": 4096, \"gbps\": " +
            Fmt(sha) + "}";
    json += ",\n    {\"op\": \"siphash\", \"backend\": \"-\", \"size\": 64, \"gbps\": " +
            Fmt(sip) + "}";
  }

  json += "\n  ],\n  \"ctr_speedup\": " + Fmt(ctr_speedup, "%.2f") +
          ",\n  \"cmac_speedup\": " + Fmt(cmac_speedup, "%.2f") +
          ",\n  \"cmac_batch_speedup\": " + Fmt(batch_speedup, "%.2f") + "\n}\n";
  std::ofstream(out_path) << json;

  if (!have_hw) {
    std::printf("# wrote %s; aes-ni unavailable, speedup gate skipped\n", out_path.c_str());
    return 0;
  }
  const bool pass = ctr_speedup >= 2.0 && cmac_speedup >= 2.0;
  std::printf("# wrote %s; target: aes-ni >= 2x table on ctr+cmac @4096 "
              "(got ctr %.2fx, cmac %.2fx, batch %.2fx) -> %s\n",
              out_path.c_str(), ctr_speedup, cmac_speedup, batch_speedup,
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace shield::crypto

int main(int argc, char** argv) {
  double seconds = 0.25;
  std::string out = "BENCH_crypto.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      seconds = 0.04;
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_micro_crypto [--smoke] [--seconds S] [--out PATH]\n");
      return 2;
    }
  }
  return shield::crypto::Run(seconds, out);
}
