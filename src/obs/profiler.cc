// See profiler.h for the design and the signal-safety rules; the short
// version: the handler below may only write one preallocated ring slot and
// walk its own stack. Everything that allocates, locks, reads the clock or
// demangles runs post-hoc in SymbolizeProfile() or in Start/Stop.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // dladdr, SIGEV_THREAD_ID, pthread_getattr_np
#endif

#include "obs/profiler.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include "util/sync.h"

// Older glibc spells the SIGEV_THREAD_ID target field only through the
// union; the macro is the documented name in newer headers.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace fastt {

thread_local ProfSpanStack t_prof_span_stack;

namespace {

// Single-writer sample ring, one per registered thread. The owning thread's
// signal handler writes ring[head % size] then release-stores head+1; the
// drainer acquire-loads head and reads only published slots — the same
// publication protocol as the tracer's ThreadBuffer.
struct ThreadSlot {
  pid_t kernel_tid = 0;
  pthread_t pthread{};
  timer_t timer{};
  bool timer_armed = false;
  bool exited = false;
  // Stack bounds cached at registration (pthread_getattr_np is not
  // async-signal-safe, so the handler can't ask). hi is exclusive.
  uintptr_t stack_hi = 0;
  std::vector<ProfRawSample> ring;
  std::atomic<uint64_t> head{0};
};

Mutex g_mu;
std::vector<std::unique_ptr<ThreadSlot>>& Slots() FASTT_REQUIRES(g_mu) {
  static auto* slots = new std::vector<std::unique_ptr<ThreadSlot>>();
  return *slots;
}
size_t g_ring_capacity FASTT_GUARDED_BY(g_mu) = 1 << 14;

std::atomic<bool> g_active{false};
// The signal handler's return address — i.e. the kernel's sa_restorer
// trampoline (__restore_rt). Recorded by the handler itself so the capture
// below can strip the signal machinery by address: the trampoline is a
// private libc symbol dladdr can't name, so name-based stripping misses it.
std::atomic<void*> g_trampoline{nullptr};
int g_hz = 0;                      // written under g_mu in Start, read after
int64_t g_start_ns = 0;            // Start's clock reading, for duration_s
double g_duration_s = 0.0;         // wall duration of the last profile
struct sigaction g_prev_action {}; // disposition to restore at Stop
bool g_handler_installed = false;

thread_local ThreadSlot* t_slot = nullptr;

int64_t MonotonicNowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 +
         static_cast<int64_t>(ts.tv_nsec);
}

void* PcFromUcontext(void* uctx) {
  if (uctx == nullptr) return nullptr;
#if defined(__x86_64__)
  auto* uc = static_cast<ucontext_t*>(uctx);
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  auto* uc = static_cast<ucontext_t*>(uctx);
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uctx;
  return nullptr;
#endif
}

}  // namespace

// The two capture functions below are deliberately non-static and
// non-inlined: they land in the dynamic symbol table (CMAKE_ENABLE_EXPORTS),
// so SymbolizeProfile can recognize and strip their frames by name.

// Frame-pointer walk, used when the build keeps frame pointers (sanitizer
// builds do). Bounds: frames must lie between the walker's own frame and
// the registered stack top, be pointer-aligned, and strictly grow — the
// interrupted code may be mid-prologue with a garbage chain, and the walk
// must fail closed rather than fault.
__attribute__((noinline)) int ProfWalkFramePointers(void** out, int max,
                                                    uintptr_t stack_hi) {
  void** fp = static_cast<void**>(__builtin_frame_address(0));
  uintptr_t lo = reinterpret_cast<uintptr_t>(&fp);
  int n = 0;
  while (n < max) {
    uintptr_t f = reinterpret_cast<uintptr_t>(fp);
    if (f <= lo || f + 2 * sizeof(void*) > stack_hi ||
        (f & (sizeof(void*) - 1)) != 0) {
      break;
    }
    void* ret = fp[1];
    if (ret == nullptr) break;
    out[n++] = ret;
    void** next = static_cast<void**>(fp[0]);
    if (next <= fp) break;
    fp = next;
  }
  return n;
}

__attribute__((noinline)) int ProfCaptureStack(void** out, int max, void* uctx,
                                               uintptr_t stack_hi) {
  int n = 0;
  void* pc = PcFromUcontext(uctx);
  if (pc != nullptr && n < max) out[n++] = pc;  // the interrupted leaf
  if (stack_hi != 0) n += ProfWalkFramePointers(out + n, max - n, stack_hi);
  if (n < 4) {
    // Frame pointers omitted (release builds): unwind via .eh_frame.
    // backtrace() crosses the signal frame and includes the leaf itself,
    // so the ucontext PC is not re-prepended. Start() warmed this up, so
    // no lazy dlopen/malloc happens here.
    n = backtrace(out, max);
    if (n < 0) n = 0;
    // The walk starts above the interrupted code: [ProfCaptureStack,
    // handler, trampoline, leaf, ...]. Everything through the trampoline
    // is profiler machinery — drop it here so even unsymbolizable
    // trampoline addresses never reach the output.
    void* tramp = g_trampoline.load(std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      if (out[i] != tramp) continue;
      const int skip = i + 1;
      for (int j = skip; j < n; ++j) out[j - skip] = out[j];
      n -= skip;
      break;
    }
  }
  return n;
}

extern "C" void FasttProfSignalHandler(int /*signo*/, siginfo_t* /*info*/,
                                       void* uctx) {
  ThreadSlot* slot = t_slot;
  if (slot == nullptr || !g_active.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  g_trampoline.store(__builtin_extract_return_addr(__builtin_return_address(0)),
                     std::memory_order_relaxed);
  const uint64_t head = slot->head.load(std::memory_order_relaxed);
  ProfRawSample& s = slot->ring[head % slot->ring.size()];
  s.span = ProfCurrentSpan();
  s.depth = ProfCaptureStack(s.frames, kProfMaxFrames, uctx, slot->stack_hi);
  slot->head.store(head + 1, std::memory_order_release);
  errno = saved_errno;
}

namespace {

// Arms `slot`'s per-thread CPU-clock timer at g_hz. Caller holds g_mu.
bool ArmSlot(ThreadSlot* slot) FASTT_REQUIRES(g_mu) {
  if (slot->timer_armed || slot->exited) return slot->timer_armed;
  clockid_t clock;
  if (pthread_getcpuclockid(slot->pthread, &clock) != 0) return false;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = slot->kernel_tid;
  if (timer_create(clock, &sev, &slot->timer) != 0) return false;
  const int64_t period_ns = 1000000000 / (g_hz > 0 ? g_hz : 997);
  struct itimerspec its;
  std::memset(&its, 0, sizeof(its));
  its.it_interval.tv_sec = static_cast<time_t>(period_ns / 1000000000);
  its.it_interval.tv_nsec = static_cast<long>(period_ns % 1000000000);
  its.it_value = its.it_interval;
  if (timer_settime(slot->timer, 0, &its, nullptr) != 0) {
    timer_delete(slot->timer);
    return false;
  }
  slot->timer_armed = true;
  return true;
}

void DisarmSlot(ThreadSlot* slot) FASTT_REQUIRES(g_mu) {
  if (!slot->timer_armed) return;
  timer_delete(slot->timer);
  slot->timer_armed = false;
}

}  // namespace

void RegisterProfiledThread() {
  if (t_slot != nullptr) return;
  auto slot = std::make_unique<ThreadSlot>();
  slot->kernel_tid = static_cast<pid_t>(syscall(SYS_gettid));
  slot->pthread = pthread_self();
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      slot->stack_hi = reinterpret_cast<uintptr_t>(addr) + size;
    }
    pthread_attr_destroy(&attr);
  }
  MutexLock lock(g_mu);
  slot->ring.resize(g_ring_capacity);
  t_slot = slot.get();
  Slots().push_back(std::move(slot));
  if (g_active.load(std::memory_order_relaxed)) ArmSlot(t_slot);
}

void UnregisterProfiledThread() {
  ThreadSlot* slot = t_slot;
  if (slot == nullptr) return;
  t_slot = nullptr;  // the handler keys off this; clear before disarming
  MutexLock lock(g_mu);
  DisarmSlot(slot);
  slot->exited = true;  // samples survive until the next Drain
}

bool ProfilingActive() { return g_active.load(std::memory_order_relaxed); }

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* profiler = new CpuProfiler();
  return *profiler;
}

CpuProfiler::CpuProfiler() = default;
CpuProfiler::~CpuProfiler() = default;

bool CpuProfiler::Start(const CpuProfilerOptions& opts) {
  if (active_.load(std::memory_order_relaxed)) return false;
  // One-time warm-up: backtrace() lazily dlopens libgcc (which mallocs) on
  // first use — do it here, in normal context, never in the handler.
  void* warmup[4];
  backtrace(warmup, 4);

  MutexLock lock(g_mu);
  g_hz = opts.hz > 0 ? opts.hz : 997;
  g_ring_capacity = opts.ring_capacity > 0 ? opts.ring_capacity : 1 << 14;
  g_start_ns = MonotonicNowNs();
  g_duration_s = 0.0;
  for (auto& slot : Slots()) {
    if (slot->ring.size() != g_ring_capacity) slot->ring.resize(g_ring_capacity);
    slot->head.store(0, std::memory_order_relaxed);
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = FasttProfSignalHandler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &g_prev_action) != 0) return false;
  g_handler_installed = true;

  g_active.store(true, std::memory_order_release);
  active_.store(true, std::memory_order_relaxed);
  bool any_armed = false;
  for (auto& slot : Slots()) any_armed = ArmSlot(slot.get()) || any_armed;
  // No registered threads yet is fine — workers registering later arm then.
  (void)any_armed;
  return true;
}

void CpuProfiler::Stop() {
  if (!active_.load(std::memory_order_relaxed)) return;
  MutexLock lock(g_mu);
  g_active.store(false, std::memory_order_release);
  active_.store(false, std::memory_order_relaxed);
  g_duration_s = static_cast<double>(MonotonicNowNs() - g_start_ns) * 1e-9;
  for (auto& slot : Slots()) DisarmSlot(slot.get());
  if (g_handler_installed) {
    // A SIGPROF generated before timer_delete may still be pending on some
    // thread; SIG_DFL for SIGPROF terminates the process, so flush first:
    // POSIX guarantees switching the disposition to SIG_IGN discards every
    // pending instance. Only then is the previous disposition restored —
    // after Stop, no profiler handler remains installed.
    struct sigaction ign;
    std::memset(&ign, 0, sizeof(ign));
    ign.sa_handler = SIG_IGN;
    sigemptyset(&ign.sa_mask);
    sigaction(SIGPROF, &ign, nullptr);
    sigaction(SIGPROF, &g_prev_action, nullptr);
    g_handler_installed = false;
  }
}

ProfileDump CpuProfiler::Drain() {
  ProfileDump dump;
  MutexLock lock(g_mu);
  dump.hz = g_hz;
  dump.duration_s = g_duration_s;
  for (auto& slot : Slots()) {
    const uint64_t head = slot->head.load(std::memory_order_acquire);
    if (head == 0) continue;
    const uint64_t cap = slot->ring.size();
    ProfThreadDump td;
    td.dropped = head > cap ? head - cap : 0;
    const uint64_t n = head > cap ? cap : head;
    const uint64_t first = head > cap ? head % cap : 0;
    td.samples.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      const ProfRawSample& s = slot->ring[(first + i) % cap];
      if (s.depth > 0) td.samples.push_back(s);
    }
    dump.samples_total += static_cast<uint64_t>(td.samples.size());
    dump.samples_dropped += td.dropped;
    slot->head.store(0, std::memory_order_relaxed);
    dump.threads.push_back(std::move(td));
  }
  // Exited threads have been collected; drop their slots so long-lived
  // processes that churn pools don't accumulate rings.
  auto& slots = Slots();
  slots.erase(std::remove_if(slots.begin(), slots.end(),
                             [](const std::unique_ptr<ThreadSlot>& s) {
                               return s->exited;
                             }),
              slots.end());
  return dump;
}

// ---- Post-hoc symbolization ------------------------------------------------

namespace {

// True when `symbol` names one of the profiler's own capture functions.
bool ProfIsInternalFrame(const std::string& symbol) {
  static const char* const kInternal[] = {
      "FasttProfSignalHandler", "ProfCaptureStack", "ProfWalkFramePointers",
      "__restore_rt",           "backtrace",        "_Unwind",
  };
  for (const char* needle : kInternal) {
    if (symbol.find(needle) != std::string::npos) return true;
  }
  return false;
}

// Resolves one PC to a display name ("fastt::OsDpos", or "module+0x1234"
// when no symbol covers it).
std::string ProfSymbolizePc(void* pc) {
  // Non-leaf entries are return addresses: the sample "belongs" to the call
  // one byte earlier, and a call as a function's final instruction would
  // otherwise attribute to whatever symbol starts next.
  void* lookup = static_cast<char*>(pc) - 1;
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  if (dladdr(lookup, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string name =
        (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
    // Drop the argument list — flat frame names fold far better.
    const size_t paren = name.find('(');
    if (paren != std::string::npos && paren > 0) name.resize(paren);
    return name;
  }
  char buf[64];
  if (info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    base = base != nullptr ? base + 1 : info.dli_fname;
    const auto off = reinterpret_cast<uintptr_t>(pc) -
                     reinterpret_cast<uintptr_t>(info.dli_fbase);
    std::snprintf(buf, sizeof(buf), "%s+0x%zx", base,
                  static_cast<size_t>(off));
  } else {
    std::snprintf(buf, sizeof(buf), "0x%zx",
                  reinterpret_cast<size_t>(pc));
  }
  return buf;
}

}  // namespace

SymbolizedProfile SymbolizeProfile(const ProfileDump& dump) {
  SymbolizedProfile out;
  out.hz = dump.hz;
  out.duration_s = dump.duration_s;
  out.samples_total = dump.samples_total;
  out.samples_dropped = dump.samples_dropped;

  std::unordered_map<void*, std::string> symbol_cache;
  auto symbolize = [&symbol_cache](void* pc) -> const std::string& {
    auto it = symbol_cache.find(pc);
    if (it == symbol_cache.end()) {
      it = symbol_cache.emplace(pc, ProfSymbolizePc(pc)).first;
    }
    return it->second;
  };

  struct Agg {
    uint64_t count = 0;
    std::vector<std::string> frames;  // root first
    std::string span;
  };
  std::map<std::string, Agg> folded;          // key -> aggregate
  std::map<std::string, ProfFrameRow> flat;   // frame name -> self/total

  for (const ProfThreadDump& td : dump.threads) {
    for (const ProfRawSample& s : td.samples) {
      if (s.span != nullptr) ++out.span_attributed;
      // Leaf-first capture -> root-first display, profiler frames stripped.
      std::vector<std::string> frames;
      frames.reserve(static_cast<size_t>(s.depth));
      for (int i = s.depth - 1; i >= 0; --i) {
        const std::string& name = symbolize(s.frames[i]);
        if (ProfIsInternalFrame(name)) continue;
        frames.push_back(name);
      }
      if (frames.empty()) frames.push_back("[unknown]");

      std::string key = s.span != nullptr ? s.span : "";
      key.push_back('\x1e');
      for (const std::string& f : frames) {
        key.append(f);
        key.push_back('\x1f');
      }
      Agg& agg = folded[key];
      if (agg.count == 0) {
        agg.frames = frames;
        agg.span = s.span != nullptr ? s.span : "";
      }
      ++agg.count;

      flat[frames.back()].self += 1;
      // `total` counts each sample once per frame even under recursion.
      std::vector<const std::string*> seen;
      for (const std::string& f : frames) {
        bool dup = false;
        for (const std::string* p : seen) {
          if (*p == f) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
        seen.push_back(&f);
        flat[f].total += 1;
      }
    }
  }

  out.stacks.reserve(folded.size());
  for (auto& [key, agg] : folded) {
    (void)key;
    ProfStackRow row;
    row.frames = std::move(agg.frames);
    row.span = std::move(agg.span);
    row.count = agg.count;
    out.stacks.push_back(std::move(row));
  }
  std::stable_sort(out.stacks.begin(), out.stacks.end(),
                   [](const ProfStackRow& a, const ProfStackRow& b) {
                     return a.count > b.count;
                   });

  out.frames.reserve(flat.size());
  for (auto& [name, row] : flat) {
    row.name = name;
    out.frames.push_back(row);
  }
  std::stable_sort(out.frames.begin(), out.frames.end(),
                   [](const ProfFrameRow& a, const ProfFrameRow& b) {
                     return a.self != b.self ? a.self > b.self
                                             : a.total > b.total;
                   });
  return out;
}

}  // namespace fastt
