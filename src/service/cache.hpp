// Content-addressed cross-request cache of parsed netlists.
//
// Keyed by the netlist text itself (FNV-1a hash for the bucket, full text
// retained and compared for exactness — content addressing, not
// hash-trusting). A hit skips parsing: the immutable NetlistAst is shared
// read-only across jobs, while every job still elaborates its own
// sim::Circuit, which carries mutable device state and cannot be shared.
//
// The cache is bitwise-neutral: a cached AST elaborates to the same circuit
// a fresh parse would. Entries are LRU-evicted beyond the entry and byte
// bounds so a daemon fed endless distinct netlists holds steady memory;
// eviction invalidates nothing in flight (jobs hold shared_ptrs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "netlist/ast.hpp"

namespace softfet::service {

/// FNV-1a 64-bit hash: the cache's bucket key, the worker's `work_hash`
/// and the job-state file stem.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// The shareable, immutable part of a compiled netlist: its parsed AST.
using CompiledNetlist = std::shared_ptr<const netlist::NetlistAst>;

struct NetlistCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;  ///< netlist-text bytes currently retained
};

class NetlistCache {
 public:
  explicit NetlistCache(std::size_t max_entries = 32,
                        std::size_t max_bytes = 8u << 20);

  /// Parse-or-fetch. Throws softfet::ParseError on a parse failure (parse
  /// failures are never cached: the error carries request-specific
  /// positions and poisoning the cache with negatives buys nothing).
  [[nodiscard]] CompiledNetlist lookup(const std::string& netlist_text);

  [[nodiscard]] NetlistCacheStats stats() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string netlist_text;  ///< exact-match key
    CompiledNetlist compiled;
  };

  std::size_t max_entries_;
  std::size_t max_bytes_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace softfet::service
