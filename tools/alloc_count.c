// alloc_count — counts heap allocations of any program, printed at exit.
//
//   cc -O2 -shared -fPIC -o alloc_count.so tools/alloc_count.c -ldl
//   LD_PRELOAD=$PWD/alloc_count.so <program> ...
//
// Counts every malloc, calloc and realloc (operator new calls malloc) on
// all threads and prints the totals to stderr when the program exits.
// Per-cycle counts come from two runs of different lengths: the
// difference of the totals over the difference of the cycle counts
// cancels set-up and teardown. Kept out of the CMake build so no
// sanitizer leg ever links a malloc interposer.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>

static atomic_ulong mallocs, callocs, reallocs;
static void* (*real_malloc)(size_t);
static void* (*real_realloc)(void*, size_t);
static int resolving;

static void resolve(void) {
  resolving = 1;
  real_malloc = dlsym(RTLD_NEXT, "malloc");
  real_realloc = dlsym(RTLD_NEXT, "realloc");
  resolving = 0;
}

void* malloc(size_t n) {
  if (!real_malloc) resolve();
  atomic_fetch_add_explicit(&mallocs, 1, memory_order_relaxed);
  return real_malloc(n);
}

// dlsym may calloc while it resolves: that one comes from a static block.
void* calloc(size_t count, size_t n) {
  static char early[1024];
  if (!real_malloc) {
    if (resolving) return early;
    resolve();
  }
  atomic_fetch_add_explicit(&callocs, 1, memory_order_relaxed);
  void* p = real_malloc(count * n);
  if (p) __builtin_memset(p, 0, count * n);
  return p;
}

void* realloc(void* p, size_t n) {
  if (!real_realloc) resolve();
  atomic_fetch_add_explicit(&reallocs, 1, memory_order_relaxed);
  return real_realloc(p, n);
}

__attribute__((destructor)) static void report(void) {
  fprintf(stderr, "alloc_count: malloc %lu calloc %lu realloc %lu\n",
          atomic_load(&mallocs), atomic_load(&callocs),
          atomic_load(&reallocs));
}
