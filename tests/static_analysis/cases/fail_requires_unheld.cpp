// NEGATIVE case: calling a MAGIC_REQUIRES(mutex_) function without holding
// the capability must be rejected: a private helper that assumes its
// caller locked, reduced to a minimum.

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace {

class Table {
 public:
  // BUG under analysis: grow_locked demands the capability; nobody holds it.
  void grow() { grow_locked(); }

 private:
  void grow_locked() MAGIC_REQUIRES(mutex_) { size_ += 1; }

  magic::util::Mutex mutex_;
  int size_ MAGIC_GUARDED_BY(mutex_) = 0;
};

}  // namespace

int case_main() {
  Table table;
  table.grow();
  return 0;
}
