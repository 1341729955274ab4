// perfbench_calibrate: a fixed machine-speed probe that shares no code with
// the program. run.py runs it between the one-shot workloads' set-ups and
// passes and scales their times by (reference probe time / this run's median
// probe time), so a host that is slower or faster for minutes at a time moves
// the probe as it moves the program, and the metric keeps only the program's
// own change.
//
// The work resembles a job's: fill a freshly allocated 128 MiB array (page
// faults on new memory, which this VM's host backs lazily), a chain of
// dependent random reads over it (cache and TLB misses) and an integer hash
// loop. A 128 MiB array tracked the jobs' wall better than a 32 MiB one.
// Prints the seconds it took.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

constexpr std::size_t kEntries = std::size_t{1} << 24;  // 128 MiB of uint64_t
constexpr long kWalkSteps = 1L << 18;
constexpr long kHashSteps = 1L << 24;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

int main() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;

  std::vector<std::uint64_t> a(kEntries);
  for (auto& e : a) e = xorshift(x);

  // Each index depends on the previous load, so the reads cannot overlap.
  std::uint64_t p = 1;
  for (long i = 0; i < kWalkSteps; ++i)
    p = (a[p & (kEntries - 1)] ^ (p * 0x9E3779B97F4A7C15ull)) >> 3;

  std::uint64_t sum = p;
  for (long i = 0; i < kHashSteps; ++i) sum += xorshift(x) & 0xff;

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::printf("%.9f %llu\n", seconds, static_cast<unsigned long long>(sum));
  return 0;
}
