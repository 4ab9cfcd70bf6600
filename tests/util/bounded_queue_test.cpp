#include "util/bounded_queue.hpp"

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace magic::util {
namespace {

using namespace std::chrono_literals;

/// Takes one item through pop_batch, so the one-item tests read as before.
bool pop(BoundedQueue<int>& q, int& out) {
  std::vector<int> batch;
  if (!q.pop_batch(batch, 1)) return false;
  out = batch.front();
  return true;
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_EQ(q.size(), 5u);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(pop(q, out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, RejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // admission control, not blocking
  int out = 0;
  EXPECT_TRUE(pop(q, out));
  EXPECT_TRUE(q.try_push(3));  // space freed
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));
}

TEST(BoundedQueue, CloseDrainsRemainingItemsThenSignalsShutdown) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  q.close();
  EXPECT_FALSE(q.try_push(3));  // closed for producers
  int out = 0;
  EXPECT_TRUE(pop(q, out));  // consumers still drain
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(pop(q, out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(pop(q, out));  // closed + empty = shutdown signal
}

TEST(BoundedQueue, CloseAndDrainReturnsQueuedItems) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(7));
  EXPECT_TRUE(q.try_push(8));
  const auto drained = q.close_and_drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], 7);
  EXPECT_EQ(drained[1], 8);
  int out = 0;
  EXPECT_FALSE(pop(q, out));
}

// pop_batch takes what is queued, up to max, oldest first, and returns at
// once with fewer than max rather than waiting for more: there is no
// producer here, so a wait would never end.
TEST(BoundedQueue, PopBatchTakesUpToMaxInFifoOrderWithoutWaiting) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(int{i}));
  std::vector<int> out{-1};  // replaced, not appended to
  EXPECT_TRUE(q.pop_batch(out, 3));
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(q.pop_batch(out, 3));
  EXPECT_EQ(out, (std::vector<int>{3, 4}));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.try_push(5));
  EXPECT_TRUE(q.try_push(6));
  EXPECT_TRUE(q.pop_batch(out, 0));  // max 0 still takes one
  EXPECT_EQ(out, (std::vector<int>{5}));
  EXPECT_EQ(q.size(), 1u);
}

// A consumer blocked on the empty queue wakes on one push and returns that
// one item, without waiting for `max` to fill.
TEST(BoundedQueue, PopBatchBlocksWhileEmpty) {
  BoundedQueue<int> q(4);
  std::atomic<bool> returned{false};
  std::vector<int> out;
  std::thread consumer([&] {
    EXPECT_TRUE(q.pop_batch(out, 8));
    returned.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(returned.load());  // still blocked on the empty queue
  EXPECT_TRUE(q.try_push(9));
  consumer.join();
  EXPECT_EQ(out, (std::vector<int>{9}));
}

TEST(BoundedQueue, PopBatchDrainsAfterCloseThenReturnsFalse) {
  BoundedQueue<int> q(4);
  for (int i = 1; i <= 3; ++i) EXPECT_TRUE(q.try_push(int{i}));
  q.close();
  std::vector<int> out;
  EXPECT_TRUE(q.pop_batch(out, 2));
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_TRUE(q.pop_batch(out, 2));
  EXPECT_EQ(out, (std::vector<int>{3}));
  EXPECT_FALSE(q.pop_batch(out, 2));  // closed + drained = shutdown signal
  EXPECT_TRUE(out.empty());
}

TEST(BoundedQueue, PopBlocksUntilPush) {
  BoundedQueue<int> q(4);
  int out = 0;
  std::thread consumer([&] { EXPECT_TRUE(pop(q, out)); });
  std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(q.try_push(5));
  consumer.join();
  EXPECT_EQ(out, 5);
}

TEST(BoundedQueue, CloseWakesBlockedConsumers) {
  BoundedQueue<int> q(4);
  std::atomic<int> woken{0};
  std::vector<std::thread> consumers;
  consumers.reserve(3);
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      int out = 0;
      if (!pop(q, out)) woken.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(10ms);
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woken.load(), 3);
}

// MPMC stress: every pushed item is popped exactly once, rejects are
// accounted, nothing is lost. Exercised under TSan via scripts/check.sh.
TEST(BoundedQueue, ConcurrentProducersConsumersLoseNothing) {
  BoundedQueue<int> q(16);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> consumers;
  consumers.reserve(2);
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> batch;
      while (q.pop_batch(batch, 4)) popped.fetch_add(static_cast<int>(batch.size()));
    });
  }
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (q.try_push(p * kPerProducer + i)) {
          accepted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped.load(), accepted.load());
}

}  // namespace
}  // namespace magic::util
