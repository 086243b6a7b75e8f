#include "service/cache.hpp"

#include "netlist/parser.hpp"

namespace softfet::service {

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

NetlistCache::NetlistCache(std::size_t max_entries, std::size_t max_bytes)
    : max_entries_(max_entries == 0 ? 1 : max_entries),
      max_bytes_(max_bytes) {}

CompiledNetlist NetlistCache::lookup(const std::string& netlist_text) {
  const std::uint64_t hash = fnv1a64(netlist_text);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->hash == hash && it->netlist_text == netlist_text) {
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it);  // bump to MRU
        return it->compiled;
      }
    }
    ++misses_;
  }

  // Parse outside the lock — it can be arbitrarily slow and may throw.
  // Concurrent misses on the same text both parse; the duplicate insert
  // below is detected and dropped (ASTs are interchangeable).
  CompiledNetlist compiled =
      std::make_shared<const netlist::NetlistAst>(netlist::parse(netlist_text));

  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->hash == hash && it->netlist_text == netlist_text) {
      lru_.splice(lru_.begin(), lru_, it);
      return it->compiled;  // a racer inserted first; share its entry
    }
  }
  lru_.push_front(Entry{hash, netlist_text, compiled});
  bytes_ += netlist_text.size();
  while (lru_.size() > max_entries_ ||
         (bytes_ > max_bytes_ && lru_.size() > 1)) {
    bytes_ -= lru_.back().netlist_text.size();
    lru_.pop_back();
    ++evictions_;
  }
  return compiled;
}

NetlistCacheStats NetlistCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  NetlistCacheStats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.entries = lru_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace softfet::service
