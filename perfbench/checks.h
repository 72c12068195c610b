// Output checks of the benchmark harness. Each returns an empty string when
// the output is correct and a one-line description of the first violation
// otherwise, so checks_test.cc can feed every check a deliberately wrong
// output and see it fail.
#ifndef SSA_PERFBENCH_CHECKS_H_
#define SSA_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "auction/account.h"
#include "auction/auction_engine.h"
#include "core/expected_revenue.h"
#include "core/winner_determination.h"
#include "durability/settlement_log.h"
#include "matching/allocation.h"

namespace ssa {
namespace perfbench {

/// Relative tolerance of the revenue ledger: the four sums are the same
/// charges added in different orders, so they agree to rounding only.
inline constexpr double kLedgerRelTol = 1e-9;
/// Relative slack on `price <= max_bid`: a GSP price is min(own bid,
/// r_next / ctr) with own bid = (bid * ctr) / ctr, which can exceed the bid
/// by one rounding step.
inline constexpr double kPriceRelTol = 1e-12;

/// Bit-exact fingerprint of everything a settled auction decided: query,
/// winners, prices, realized events and charges, expected revenue. The two
/// overloads hash the same fields in the same order, so the digest of an
/// outcome equals the digest of its settlement record.
uint64_t DigestOf(const AuctionOutcome& outcome);
uint64_t DigestOf(const SettlementRecord& record);

/// At most one advertiser per slot and one slot per advertiser, ids in
/// range, and the two directions of the allocation agree.
std::string CheckFeasible(const Allocation& allocation, int num_advertisers,
                          int num_slots);

/// Per-click GSP charges: every filled slot's price lies in
/// [0, winner's max_bid for the keyword]; empty slots charge nothing.
std::string CheckGspPrices(const std::vector<Money>& prices,
                           const Allocation& allocation,
                           const std::vector<AdvertiserAccount>& accounts,
                           int keyword);

/// Running sums the ledger check compares; fold every settled outcome in.
struct Ledger {
  double event_charges = 0;
  double revenue_charged = 0;
  void Add(const AuctionOutcome& outcome);
};

/// Sum of event charges == sum of revenue_charged == rise of the engine's
/// total_revenue() == sum of the rises of every account's amount_spent, up
/// to kLedgerRelTol.
std::string CheckLedger(const Ledger& ledger, double revenue_rise,
                        double spend_rise);

/// Sum of amount_spent over all accounts.
double TotalSpend(const std::vector<AdvertiserAccount>& accounts);

/// Bitwise equality of account state (spend, per-keyword spend and value).
std::string CheckAccountsBitwise(const std::vector<AdvertiserAccount>& got,
                                 const std::vector<AdvertiserAccount>& want);

/// Bitwise equality of the first `count` digests of two trajectories.
std::string CheckDigestPrefix(const std::vector<uint64_t>& got,
                              const std::vector<uint64_t>& want, size_t count);

/// Bitwise equality of a stage-by-stage replay against the engine's plan.
std::string CheckReplayMatches(const Allocation& plan_allocation,
                               const std::vector<Money>& plan_prices,
                               const Allocation& replay_allocation,
                               const std::vector<Money>& replay_prices);

/// Every submitted query completed exactly once, in submission order:
/// `completed_times` must be exactly first, first + 1, ..., first + count-1.
std::string CheckCompletionOrder(const std::vector<int64_t>& completed_times,
                                 int64_t first, int64_t count);

/// The settlement log holds exactly the completed auctions: one record per
/// completion, sequenced 1..N, each with the completion's digest.
std::string CheckLogMatches(const std::vector<SettlementRecord>& records,
                            const std::vector<uint64_t>& completion_digests);

/// Greedy feasible allocation over the matrix's positive marginal weights
/// (heaviest edge first); returns its expected revenue.
double GreedyExpectedRevenue(const RevenueMatrix& revenue);

/// The optimum is at least the greedy allocation's revenue.
std::string CheckOptimalAtLeastGreedy(const RevenueMatrix& revenue,
                                      const WdResult& optimum);

}  // namespace perfbench
}  // namespace ssa

#endif  // SSA_PERFBENCH_CHECKS_H_
