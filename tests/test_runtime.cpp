// Runtime subsystem tests: thread-pool lifecycle, nested batches, exception
// propagation, deterministic parallel maps, and probe-cache accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "common/json.h"
#include "common/rng.h"
#include "runtime/parallel.h"
#include "runtime/probe_cache.h"
#include "runtime/thread_pool.h"

namespace sbm::runtime {
namespace {

TEST(ThreadPool, LifecycleAtVariousSizes) {
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.concurrency(), threads);
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i) tasks.push_back([&ran] { ++ran; });
    pool.run_batch(std::move(tasks));
    EXPECT_EQ(ran.load(), 32);
  }
  // Destruction with no batches ever submitted must not hang.
  ThreadPool idle(4);
}

TEST(ThreadPool, EmptyBatchAndReuse) {
  ThreadPool pool(4);
  pool.run_batch({});
  std::atomic<int> ran{0};
  for (int round = 0; round < 10; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) tasks.push_back([&ran] { ++ran; });
    pool.run_batch(std::move(tasks));
  }
  EXPECT_EQ(ran.load(), 80);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.concurrency(), 1u);
}

TEST(ThreadPool, NestedBatchesDoNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_ran{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 8; ++i) {
    outer.push_back([&pool, &inner_ran] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 8; ++j) inner.push_back([&inner_ran] { ++inner_ran; });
      pool.run_batch(std::move(inner));
    });
  }
  pool.run_batch(std::move(outer));
  EXPECT_EQ(inner_ran.load(), 64);
}

TEST(ThreadPool, ExceptionPropagates) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back([&ran, i] {
        ++ran;
        if (i == 5) throw std::runtime_error("task 5 failed");
      });
    }
    try {
      pool.run_batch(std::move(tasks));
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 5 failed");
    }
    // Every task still ran (the batch is not torn down mid-flight)...
    EXPECT_EQ(ran.load(), 16);
    // ...and the pool stays usable.
    std::atomic<int> again{0};
    pool.run_batch({[&again] { ++again; }});
    EXPECT_EQ(again.load(), 1);
  }
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  // With several throwing tasks the surfaced error must not depend on
  // scheduling: the lowest task index is rethrown.
  ThreadPool pool(8);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i) {
      tasks.push_back([i] {
        if (i % 7 == 3) throw std::runtime_error("fail@" + std::to_string(i));
      });
    }
    try {
      pool.run_batch(std::move(tasks));
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail@3");
    }
  }
}

TEST(Parallel, MapPreservesIndexOrder) {
  ThreadPool pool(8);
  const auto out = parallel_map(&pool, 1000, [](size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Parallel, MapMatchesSerialForAnyThreadCount) {
  auto work = [](size_t i) {
    Rng rng(i);
    return rng.next_u64();
  };
  const auto serial = parallel_map(nullptr, 313, work);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(parallel_map(&pool, 313, work), serial) << threads << " threads";
  }
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(512);
  parallel_for(&pool, counts.size(), [&](size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ProbeCache, HitMissAccounting) {
  // A hit is a find that returns an outcome, a miss one that returns
  // nullptr; the session counts them in its run ledger.
  ProbeCache cache;
  const std::vector<u8> bytes_a = {1, 2, 3, 4, 5};
  const std::vector<u8> bytes_b = {1, 2, 3, 4, 6};
  const ProbeKey a = make_probe_key(bytes_a, 16);
  const ProbeKey b = make_probe_key(bytes_b, 16);
  EXPECT_FALSE(a == b);

  EXPECT_EQ(cache.find(a), nullptr);
  EXPECT_EQ(cache.size(), 0u);

  cache.store(a, ProbeOutcome(std::vector<u32>{0xdead, 0xbeef}));
  const ProbeOutcome* hit = cache.find(a);
  ASSERT_NE(hit, nullptr);
  ASSERT_TRUE(hit->ok());
  EXPECT_EQ((**hit)[1], 0xbeefu);
  EXPECT_EQ(cache.size(), 1u);

  // Rejected probes are cacheable outcomes, distinct from misses.
  EXPECT_EQ(cache.find(b), nullptr);
  cache.store(b, ProbeOutcome(ProbeError::kRejected));
  const ProbeOutcome* rejected = cache.find(b);
  ASSERT_NE(rejected, nullptr);
  EXPECT_FALSE(rejected->ok());
  EXPECT_EQ(rejected->error(), ProbeError::kRejected);
  EXPECT_EQ(cache.size(), 2u);

  // The first outcome stored for a key stays.
  cache.store(a, ProbeOutcome(std::vector<u32>{1, 2}));
  EXPECT_EQ(*cache.find(a), ProbeOutcome(std::vector<u32>{0xdead, 0xbeef}));
  EXPECT_EQ(cache.size(), 2u);

  size_t visited = 0;
  cache.for_each([&](const ProbeKey& key, const ProbeOutcome& outcome) {
    ++visited;
    EXPECT_EQ(outcome, *cache.find(key));
  });
  EXPECT_EQ(visited, 2u);
}

TEST(ProbeCache, KeyDependsOnWordsAndContent) {
  const std::vector<u8> bytes = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12};
  EXPECT_FALSE(make_probe_key(bytes, 16) == make_probe_key(bytes, 17));
  std::vector<u8> flipped = bytes;
  flipped[11] ^= 0x80;  // tail byte beyond the last full 8-byte chunk
  EXPECT_FALSE(make_probe_key(bytes, 16) == make_probe_key(flipped, 16));
  EXPECT_TRUE(make_probe_key(bytes, 16) == make_probe_key(bytes, 16));
}

TEST(Json, WellFormedOutput) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "line1\nline\"2\"");
  w.field("count", u64{42});
  w.field("ratio", 0.5);
  w.field("ok", true);
  w.key("list").begin_array().value(u64{1}).value(u64{2}).value(u64{3}).end_array();
  w.key("nested").begin_object().field("deep", false).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"line1\\nline\\\"2\\\"\",\"count\":42,\"ratio\":0.5,\"ok\":true,"
            "\"list\":[1,2,3],\"nested\":{\"deep\":false}}");
}

}  // namespace
}  // namespace sbm::runtime
