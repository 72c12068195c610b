#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <tuple>

namespace ssa {
namespace perfbench {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  // splitmix64 finalizer over the running state.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

uint64_t DigestFields(const Query& query,
                      const std::vector<AdvertiserId>& winners,
                      const std::vector<Money>& prices,
                      const std::vector<UserEvent>& events,
                      double expected_revenue, Money revenue_charged) {
  uint64_t h = Mix(0x5ca1ab1e, static_cast<uint64_t>(query.time));
  h = Mix(h, static_cast<uint64_t>(query.keyword));
  for (AdvertiserId a : winners) h = Mix(h, static_cast<uint64_t>(a + 1));
  for (Money p : prices) h = Mix(h, Bits(p));
  for (const UserEvent& e : events) {
    h = Mix(h, static_cast<uint64_t>(e.advertiser));
    h = Mix(h, static_cast<uint64_t>(e.slot));
    h = Mix(h, (e.clicked ? 2u : 0u) | (e.purchased ? 1u : 0u));
    h = Mix(h, Bits(e.charged));
  }
  h = Mix(h, Bits(expected_revenue));
  return Mix(h, Bits(revenue_charged));
}

bool SameBits(double a, double b) { return Bits(a) == Bits(b); }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool Close(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kLedgerRelTol * scale;
}

}  // namespace

uint64_t DigestOf(const AuctionOutcome& outcome) {
  return DigestFields(outcome.query, outcome.wd.allocation.slot_to_advertiser,
                      outcome.prices, outcome.events,
                      outcome.wd.expected_revenue, outcome.revenue_charged);
}

uint64_t DigestOf(const SettlementRecord& record) {
  return DigestFields(record.query, record.winners, record.prices,
                      record.events, record.expected_revenue,
                      record.revenue_charged);
}

std::string CheckFeasible(const Allocation& allocation, int num_advertisers,
                          int num_slots) {
  if (allocation.num_slots() != num_slots ||
      allocation.num_advertisers() != num_advertisers) {
    return "allocation has the wrong shape";
  }
  int assigned = 0;
  for (SlotIndex j = 0; j < num_slots; ++j) {
    const AdvertiserId a = allocation.slot_to_advertiser[j];
    if (a < -1 || a >= num_advertisers) {
      return "slot " + std::to_string(j) + " holds unknown advertiser " +
             std::to_string(a);
    }
    if (a < 0) continue;
    ++assigned;
    if (allocation.advertiser_to_slot[a] != j) {
      return "advertiser " + std::to_string(a) + " fills slot " +
             std::to_string(j) + " but is recorded in slot " +
             std::to_string(allocation.advertiser_to_slot[a]);
    }
  }
  int placed = 0;
  for (SlotIndex s : allocation.advertiser_to_slot) {
    if (s == kNoSlot) continue;
    if (s < 0 || s >= num_slots) return "advertiser placed in unknown slot";
    ++placed;
  }
  if (placed != assigned) {
    return "an advertiser holds more than one slot (" + std::to_string(placed) +
           " placements for " + std::to_string(assigned) + " filled slots)";
  }
  return "";
}

std::string CheckGspPrices(const std::vector<Money>& prices,
                           const Allocation& allocation,
                           const std::vector<AdvertiserAccount>& accounts,
                           int keyword) {
  if (prices.size() != allocation.slot_to_advertiser.size()) {
    return "price vector has the wrong length";
  }
  for (size_t j = 0; j < prices.size(); ++j) {
    const AdvertiserId a = allocation.slot_to_advertiser[j];
    const Money p = prices[j];
    if (a < 0) {
      if (p != 0.0) return "empty slot " + std::to_string(j) + " is priced";
      continue;
    }
    const Money cap = accounts[a].max_bid[keyword];
    if (!(p >= 0.0) || p > cap * (1.0 + kPriceRelTol)) {
      return "slot " + std::to_string(j) + " charges " + std::to_string(p) +
             " per click, outside [0, max_bid " + std::to_string(cap) + "]";
    }
  }
  return "";
}

void Ledger::Add(const AuctionOutcome& outcome) {
  for (const UserEvent& e : outcome.events) event_charges += e.charged;
  revenue_charged += outcome.revenue_charged;
}

std::string CheckLedger(const Ledger& ledger, double revenue_rise,
                        double spend_rise) {
  if (Close(ledger.event_charges, ledger.revenue_charged) &&
      Close(ledger.revenue_charged, revenue_rise) &&
      Close(revenue_rise, spend_rise)) {
    return "";
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ledger mismatch: event charges %.17g, revenue_charged %.17g, "
                "total_revenue rise %.17g, amount_spent rise %.17g",
                ledger.event_charges, ledger.revenue_charged, revenue_rise,
                spend_rise);
  return buf;
}

double TotalSpend(const std::vector<AdvertiserAccount>& accounts) {
  double total = 0;
  for (const AdvertiserAccount& a : accounts) total += a.amount_spent;
  return total;
}

std::string CheckAccountsBitwise(const std::vector<AdvertiserAccount>& got,
                                 const std::vector<AdvertiserAccount>& want) {
  if (got.size() != want.size()) return "account count differs";
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameBits(got[i].amount_spent, want[i].amount_spent) ||
        !SameBits(got[i].spent_per_keyword, want[i].spent_per_keyword) ||
        !SameBits(got[i].value_gained, want[i].value_gained)) {
      return "account " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::string CheckDigestPrefix(const std::vector<uint64_t>& got,
                              const std::vector<uint64_t>& want,
                              size_t count) {
  if (got.size() < count || want.size() < count) {
    return "trajectory shorter than the compared prefix";
  }
  for (size_t t = 0; t < count; ++t) {
    if (got[t] != want[t]) {
      return "auction " + std::to_string(t + 1) + " differs from the reference";
    }
  }
  return "";
}

std::string CheckReplayMatches(const Allocation& plan_allocation,
                               const std::vector<Money>& plan_prices,
                               const Allocation& replay_allocation,
                               const std::vector<Money>& replay_prices) {
  if (plan_allocation.slot_to_advertiser !=
      replay_allocation.slot_to_advertiser) {
    return "stage replay allocates differently from PlanAuction";
  }
  if (!SameBits(plan_prices, replay_prices)) {
    return "stage replay prices differ from PlanAuction";
  }
  return "";
}

std::string CheckCompletionOrder(const std::vector<int64_t>& completed_times,
                                 int64_t first, int64_t count) {
  if (static_cast<int64_t>(completed_times.size()) != count) {
    return std::to_string(completed_times.size()) + " completions for " +
           std::to_string(count) + " submitted queries";
  }
  for (int64_t i = 0; i < count; ++i) {
    if (completed_times[i] != first + i) {
      return "completion " + std::to_string(i) + " is query " +
             std::to_string(completed_times[i]) + ", expected " +
             std::to_string(first + i);
    }
  }
  return "";
}

std::string CheckLogMatches(const std::vector<SettlementRecord>& records,
                            const std::vector<uint64_t>& completion_digests) {
  if (records.size() != completion_digests.size()) {
    return "log holds " + std::to_string(records.size()) + " records for " +
           std::to_string(completion_digests.size()) + " completed auctions";
  }
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].seq != i + 1) {
      return "log record " + std::to_string(i) + " has seq " +
             std::to_string(records[i].seq);
    }
    if (DigestOf(records[i]) != completion_digests[i]) {
      return "log record " + std::to_string(i + 1) +
             " differs from the completed auction";
    }
  }
  return "";
}

double GreedyExpectedRevenue(const RevenueMatrix& revenue) {
  const int n = revenue.num_advertisers();
  const int k = revenue.num_slots();
  std::vector<std::tuple<double, AdvertiserId, SlotIndex>> edges;
  for (AdvertiserId i = 0; i < n; ++i) {
    for (SlotIndex j = 0; j < k; ++j) {
      const double w = revenue.MarginalWeight(i, j);
      if (w > 0.0) edges.emplace_back(w, i, j);
    }
  }
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) > std::get<0>(b);
  });
  std::vector<char> advertiser_used(n, 0), slot_used(k, 0);
  double total = revenue.UnassignedTotal();
  for (const auto& [w, i, j] : edges) {
    if (advertiser_used[i] || slot_used[j]) continue;
    advertiser_used[i] = slot_used[j] = 1;
    total += w;
  }
  return total;
}

std::string CheckOptimalAtLeastGreedy(const RevenueMatrix& revenue,
                                      const WdResult& optimum) {
  const double greedy = GreedyExpectedRevenue(revenue);
  const double slack = kLedgerRelTol * std::max(1.0, std::fabs(greedy));
  if (optimum.expected_revenue + slack >= greedy) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "optimal expected revenue %.17g is below greedy %.17g",
                optimum.expected_revenue, greedy);
  return buf;
}

}  // namespace perfbench
}  // namespace ssa
