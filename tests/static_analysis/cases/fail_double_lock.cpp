// NEGATIVE case: re-acquiring a non-reentrant capability already held is a
// self-deadlock; the analysis must reject it. This is the deadlock the
// MAGIC_EXCLUDES(mutex_) annotations (obs::HistogramCell::record, the
// BoundedQueue entry points) guard against, reduced to a minimum.

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace {

class Counter {
 public:
  void bump_twice() MAGIC_EXCLUDES(mutex_) {
    magic::util::MutexLock outer(mutex_);
    ++count_;
    // BUG under analysis: mutex_ is already held.
    magic::util::MutexLock inner(mutex_);
    ++count_;
  }

 private:
  magic::util::Mutex mutex_;
  int count_ MAGIC_GUARDED_BY(mutex_) = 0;
};

}  // namespace

int case_main() {
  Counter counter;
  counter.bump_twice();
  return 0;
}
