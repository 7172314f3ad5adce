// prof_sample — a SIGPROF stack sampler for any program, for boxes
// without perf.
//
//   cc -O2 -shared -fPIC -o prof_sample.so tools/prof_sample.c
//   LD_PRELOAD=$PWD/prof_sample.so <program> ...
//   python3 tools/prof_symbolize.py prof_sample.<pid>.txt
//
// An ITIMER_PROF timer fires 250 times per second of the process's CPU
// time, and the kernel delivers each SIGPROF to a thread that was
// running, so samples fall on threads in proportion to the CPU they use.
// The handler records the thread id and up to kMaxFrames return
// addresses (backtrace(), which unwinds through the signal frame) into a
// fixed array. When the program exits, the samples and the process's
// memory map go to prof_sample.<pid>.txt in the working directory;
// prof_symbolize.py turns them into self and inclusive shares per
// function. Kept out of the CMake build, like alloc_count.c.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

enum { kHz = 250, kMaxFrames = 48, kMaxSamples = 1 << 15 };

struct sample {
  int tid;
  int depth;
  void* frames[kMaxFrames];
};

static struct sample samples[kMaxSamples];
static atomic_int taken;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  (void)context;
  const int saved_errno = errno;
  const int slot = atomic_fetch_add(&taken, 1);
  if (slot < kMaxSamples) {
    samples[slot].tid = (int)syscall(SYS_gettid);
    samples[slot].depth = backtrace(samples[slot].frames, kMaxFrames);
  }
  errno = saved_errno;
}

__attribute__((constructor)) static void start(void) {
  // The first backtrace() loads the unwinder, which may allocate: do it
  // here, not in the handler.
  void* warm[2];
  (void)backtrace(warm, 2);
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  const struct itimerval every = {{0, 1000000 / kHz}, {0, 1000000 / kHz}};
  setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[64];
  snprintf(path, sizeof(path), "prof_sample.%d.txt", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  fprintf(out, "maps\n");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  int count = atomic_load(&taken);
  if (count > kMaxSamples) count = kMaxSamples;
  fprintf(out, "samples %d hz %d\n", count, kHz);
  for (int i = 0; i < count; ++i) {
    fprintf(out, "%d", samples[i].tid);
    // Frame 0 is the handler itself and frame 1 the signal trampoline.
    for (int f = 2; f < samples[i].depth; ++f) {
      fprintf(out, " %p", samples[i].frames[f]);
    }
    fputc('\n', out);
  }
  fclose(out);
  fprintf(stderr, "prof_sample: %d samples in %s\n", count, path);
}
