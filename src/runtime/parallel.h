// Deterministic data-parallel loops on top of ThreadPool.
//
// Determinism contract: for the same inputs, parallel_for / parallel_map
// produce results identical to the serial loop `for (i = 0; i < n; ++i)`,
// regardless of the pool's thread count (a null pool means "run serially").
// parallel_map keeps results in index order.  The only thing threads may
// change is wall-clock time.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"

namespace sbm::runtime {

/// Number of contiguous index shards used for `n` items: enough to balance
/// load (4 per thread) without drowning in per-task overhead.
inline size_t shard_count(const ThreadPool* pool, size_t n) {
  if (pool == nullptr || pool->concurrency() <= 1 || n <= 1) return 1;
  return std::min(n, size_t{pool->concurrency()} * 4);
}

/// Number of fixed-size chunks covering [0, n): ceil(n / chunk).  Chunk c
/// spans [c * chunk, min(n, (c + 1) * chunk)) — the tail chunk may be
/// ragged.  Used to split batch work (e.g. 64-lane probe batches) so the
/// chunk boundaries — and therefore per-chunk results — are independent of
/// how many threads execute them.
inline size_t chunk_count(size_t n, size_t chunk) {
  return chunk == 0 ? 0 : (n + chunk - 1) / chunk;
}

/// Calls fn(i) for every i in [0, n).  fn must be safe to call concurrently
/// for distinct i.
template <typename Fn>
void parallel_for(ThreadPool* pool, size_t n, Fn&& fn) {
  const size_t shards = shard_count(pool, n);
  if (shards <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    const size_t begin = n * s / shards;
    const size_t end = n * (s + 1) / shards;
    tasks.push_back([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  pool->run_batch(std::move(tasks));
}

/// Maps fn over [0, n) and returns the results in index order.
template <typename Fn>
auto parallel_map(ThreadPool* pool, size_t n, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, size_t>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, size_t>>;
  if (shard_count(pool, n) <= 1) {
    std::vector<R> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(fn(i));
    return out;
  }
  std::vector<std::optional<R>> slots(n);
  parallel_for(pool, n, [&](size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(n);
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace sbm::runtime
