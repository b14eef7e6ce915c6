#include "panorama/support/memo_cache.h"

#include "panorama/obs/metrics.h"

namespace panorama {

QueryCache& QueryCache::global() {
  static QueryCache cache;
  return cache;
}

std::string formatQueryCacheStats(const QueryCache::Stats& stats) {
  return obs::renderCacheCounters("query cache", stats.hits, stats.misses, stats.entries,
                                  stats.evictions, /*rateDecimals=*/1);
}

}  // namespace panorama
