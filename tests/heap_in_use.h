// HeapInUse(): the bytes glibc's allocator has handed out and not had back
// (mallinfo2's uordblks + hblkhd), for tests that bound what a structure
// keeps. Defined, with DBAUGUR_TEST_HEAP_IN_USE, only on glibc 2.33+ with the
// system allocator: a sanitizer's allocator does not report through
// mallinfo2, so tests skip there.

#pragma once

#include <cstdint>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DBAUGUR_TEST_SANITIZED 1
#endif
#if !defined(DBAUGUR_TEST_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DBAUGUR_TEST_SANITIZED 1
#endif
#endif
#if defined(__GLIBC__) && !defined(DBAUGUR_TEST_SANITIZED)
#include <malloc.h>
#if __GLIBC_PREREQ(2, 33)
#define DBAUGUR_TEST_HEAP_IN_USE 1
#endif
#endif

#if defined(DBAUGUR_TEST_HEAP_IN_USE)
inline int64_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
}
#endif
