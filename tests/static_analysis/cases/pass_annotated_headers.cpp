// POSITIVE case: the real annotated headers of the concurrency surface
// must compile clean under -Werror=thread-safety-analysis. This catches
// annotation regressions in the inline code paths (BoundedQueue and
// VerdictSlot do all their locking in the header) without needing a full
// library build.

#include <vector>

#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/verdict.hpp"
#include "util/bounded_queue.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

int case_main() {
  magic::util::BoundedQueue<int> queue(4);
  queue.close();
  // Instantiates the consumer call, so its locking is analyzed too.
  std::vector<int> batch;
  return queue.pop_batch(batch, 2) ? 1 : 0;
}
