// pcsample — a wall-clock program-counter sampler for one process,
// loaded with LD_PRELOAD (tools/pcsample/pcsample.py drives it).
//
// gprof's -pg instrumentation charges an inlined callee to its caller,
// so the cost of one hot line inside a large inlined function is
// invisible. This sampler records raw PCs instead; addr2line -i then
// expands each PC into its chain of inlined frames and source lines.
//
// At load, a CLOCK_MONOTONIC POSIX timer is armed to send this process
// SIGPROF every PCSAMPLE_PERIOD_US microseconds (default 1000). The
// handler keeps the interrupted PC when it lies in an executable
// segment of the main program, as an offset from the program's load
// base (the address addr2line expects, PIE or not), and counts every
// other sample (shared libraries, the kernel) as outside. At exit the
// samples go to PCSAMPLE_OUT.<pid> (default ./pcsample.<pid>): a
// header line, then one hex offset per line. Only the loading process
// writes; a fork child that exits without exec writes nothing.
#include <link.h>
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 22;  // 16 MB reserved, touched as used
constexpr int kMaxRanges = 8;

struct Range {
  std::uintptr_t lo, hi;
};

std::uintptr_t g_base = 0;
Range g_ranges[kMaxRanges];
int g_range_count = 0;
std::uint32_t* g_samples = nullptr;
std::atomic<std::size_t> g_taken{0};
std::atomic<std::size_t> g_outside{0};
timer_t g_timer;
bool g_armed = false;
pid_t g_pid = 0;
long g_period_us = 1000;

int find_main_program(dl_phdr_info* info, std::size_t, void*) {
  // The first object dl_iterate_phdr reports is the main program.
  g_base = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum && g_range_count < kMaxRanges; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    g_ranges[g_range_count++] = {lo, lo + ph.p_memsz};
  }
  return 1;  // stop after the first object
}

std::uintptr_t interrupted_pc(void* uc) {
  const auto* ctx = static_cast<const ucontext_t*>(uc);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(ctx->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(ctx->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
}

void on_sample(int, siginfo_t*, void* uc) {
  const std::uintptr_t pc = interrupted_pc(uc);
  for (int i = 0; i < g_range_count; ++i) {
    if (pc >= g_ranges[i].lo && pc < g_ranges[i].hi) {
      const std::size_t n = g_taken.fetch_add(1, std::memory_order_relaxed);
      if (n < kMaxSamples) g_samples[n] = static_cast<std::uint32_t>(pc - g_base);
      return;
    }
  }
  g_outside.fetch_add(1, std::memory_order_relaxed);
}

__attribute__((constructor)) void pcsample_start() {
  if (const char* p = std::getenv("PCSAMPLE_PERIOD_US")) g_period_us = std::atol(p);
  if (g_period_us <= 0) return;
  dl_iterate_phdr(find_main_program, nullptr);
  void* mem = mmap(nullptr, kMaxSamples * sizeof(std::uint32_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED || g_range_count == 0) return;
  g_samples = static_cast<std::uint32_t*>(mem);
  g_pid = getpid();

  struct sigaction sa {};
  sa.sa_sigaction = on_sample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) return;
  itimerspec its{};
  its.it_interval.tv_sec = g_period_us / 1'000'000;
  its.it_interval.tv_nsec = (g_period_us % 1'000'000) * 1000;
  its.it_value = its.it_interval;
  g_armed = timer_settime(g_timer, 0, &its, nullptr) == 0;
}

__attribute__((destructor)) void pcsample_stop() {
  if (!g_armed) return;
  timer_delete(g_timer);
  g_armed = false;
  if (getpid() != g_pid) return;
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  const char* prefix = std::getenv("PCSAMPLE_OUT");
  char path[4096];
  std::snprintf(path, sizeof path, "%s.%d", prefix != nullptr ? prefix : "pcsample",
                static_cast<int>(g_pid));
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  const std::size_t taken = g_taken.load();
  const std::size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  std::fprintf(f, "# pcsample exe=%s period_us=%ld inside=%zu outside=%zu kept=%zu\n", exe,
               g_period_us, taken, g_outside.load(), kept);
  for (std::size_t i = 0; i < kept; ++i) std::fprintf(f, "%x\n", g_samples[i]);
  std::fclose(f);
}

}  // namespace
