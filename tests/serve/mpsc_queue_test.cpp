// Edge cases of the scheduler's bounded MPSC queue — the shapes the
// telemetry-era serving stack actually exercises: tiny capacities
// (back-pressure immediately), close() racing blocked producers, and the
// drain -> reopen cycle RequestScheduler::stop()/start() relies on.
#include "serve/mpsc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace verihvac::serve {
namespace {

TEST(MpscQueueTest, CapacityOneAlternatesPushPop) {
  BoundedMpscQueue<int> queue(1);
  EXPECT_EQ(queue.capacity(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.push(i));
    EXPECT_EQ(queue.size(), 1u);
    int out = -1;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, i);
    EXPECT_EQ(queue.size(), 0u);
  }
}

TEST(MpscQueueTest, ZeroCapacityIsClampedToOne) {
  BoundedMpscQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.push(7));
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 7);
}

TEST(MpscQueueTest, CapacityOneBlocksSecondProducerUntilPop) {
  BoundedMpscQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));

  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(2));  // blocks until the consumer pops
    second_pushed.store(true);
  });

  // Give the producer a chance to block on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());

  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
}

TEST(MpscQueueTest, CloseReleasesProducersBlockedOnFullQueue) {
  BoundedMpscQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));

  constexpr int kProducers = 4;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &rejected, p] {
      if (!queue.push(100 + p)) rejected.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // close() must wake every blocked producer; their items are dropped and
  // push reports false so callers know the item will never be served.
  queue.close();
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(rejected.load(), kProducers);

  // The item enqueued before the close still drains.
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(queue.pop(out));  // closed and empty
}

TEST(MpscQueueTest, PushAfterCloseFailsWithoutBlocking) {
  BoundedMpscQueue<int> queue(4);
  queue.close();
  EXPECT_FALSE(queue.push(1));
  EXPECT_TRUE(queue.closed());
}

TEST(MpscQueueTest, DrainAfterReopenServesAgain) {
  // The scheduler's stop() -> start() cycle: close, drain the stragglers,
  // reopen, and the queue must behave exactly like a fresh one.
  BoundedMpscQueue<int> queue(2);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  queue.close();

  int out = 0;
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_FALSE(queue.push(3));  // still closed

  queue.reopen();
  EXPECT_FALSE(queue.closed());
  EXPECT_TRUE(queue.push(4));
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 4);

  // A second full cycle to prove reopen is not single-shot.
  queue.close();
  EXPECT_FALSE(queue.push(5));
  queue.reopen();
  EXPECT_TRUE(queue.push(6));
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 6);
}

TEST(MpscQueueTest, CloseWhileConsumerWaitsReleasesIt) {
  BoundedMpscQueue<int> queue(2);
  std::atomic<bool> released{false};
  std::thread consumer([&] {
    int out = 0;
    EXPECT_FALSE(queue.pop(out));  // blocks until close, then drained-false
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  queue.close();
  consumer.join();
  EXPECT_TRUE(released.load());
}

}  // namespace
}  // namespace verihvac::serve
