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
  ProbeCache cache;
  const std::vector<u8> bytes_a = {1, 2, 3, 4, 5};
  const std::vector<u8> bytes_b = {1, 2, 3, 4, 6};
  const ProbeKey a = make_probe_key(bytes_a, 16);
  const ProbeKey b = make_probe_key(bytes_b, 16);
  EXPECT_FALSE(a == b);

  EXPECT_FALSE(cache.lookup(a).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  cache.store(a, ProbeResult{std::vector<u32>{0xdead, 0xbeef}});
  const auto hit = cache.lookup(a);
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->has_value());
  EXPECT_EQ((**hit)[1], 0xbeefu);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);

  // Rejected probes (nullopt) are cacheable outcomes, distinct from misses.
  cache.store(b, std::nullopt);
  const auto rejected = cache.lookup(b);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->has_value());
  EXPECT_EQ(cache.hits(), 2u);

  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(ProbeCache, KeyDependsOnWordsAndContent) {
  const std::vector<u8> bytes = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12};
  EXPECT_FALSE(make_probe_key(bytes, 16) == make_probe_key(bytes, 17));
  std::vector<u8> flipped = bytes;
  flipped[11] ^= 0x80;  // tail byte beyond the last full 8-byte chunk
  EXPECT_FALSE(make_probe_key(bytes, 16) == make_probe_key(flipped, 16));
  EXPECT_TRUE(make_probe_key(bytes, 16) == make_probe_key(bytes, 16));
}

TEST(ProbeCache, ShardedConcurrentAccess) {
  ProbeCache cache(8);
  ThreadPool pool(8);
  // Many threads hammering overlapping keys: every lookup is either a hit
  // or a miss, totals must balance, and stored values stay intact.
  parallel_for(&pool, 64, [&](size_t i) {
    Rng rng(i % 16);  // 16 distinct probe contents, contended 4 ways each
    std::vector<u8> bytes(64);
    for (auto& b : bytes) b = static_cast<u8>(rng.next_u32());
    const ProbeKey key = make_probe_key(bytes, 16);
    if (!cache.lookup(key).has_value()) {
      cache.store(key, ProbeResult{std::vector<u32>{static_cast<u32>(i % 16)}});
    }
    const auto back = cache.lookup(key);
    if (back.has_value() && back->has_value()) {
      EXPECT_EQ((**back)[0], i % 16);
    }
  });
  EXPECT_EQ(cache.entries(), 16u);
  EXPECT_EQ(cache.hits() + cache.misses(), 128u);  // 2 lookups per task
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
