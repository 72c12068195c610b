// Feeds every output check of the benchmark a correct output and a
// deliberately wrong one: each check must pass the first and fail the second.
// Run: python3 perfbench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "durability/settlement_log.h"

namespace ssa {
namespace perfbench {
namespace {

int failures = 0;

void ExpectPass(const std::string& error, const char* what) {
  if (!error.empty()) {
    ++failures;
    std::printf("FAIL  %s: correct output rejected (%s)\n", what,
                error.c_str());
  } else {
    std::printf("ok    %s: correct output passes\n", what);
  }
}

void ExpectFail(const std::string& error, const char* what) {
  if (error.empty()) {
    ++failures;
    std::printf("FAIL  %s: wrong output accepted\n", what);
  } else {
    std::printf("ok    %s: wrong output caught (%s)\n", what, error.c_str());
  }
}

double NextUp(double x) { return std::nextafter(x, 1e300); }

Allocation TwoOfThree() {
  // 4 advertisers, 3 slots: slot 0 <- 2, slot 1 empty, slot 2 <- 0.
  Allocation a = Allocation::Empty(4, 3);
  a.slot_to_advertiser = {2, -1, 0};
  a.advertiser_to_slot[2] = 0;
  a.advertiser_to_slot[0] = 2;
  return a;
}

std::vector<AdvertiserAccount> Accounts() {
  std::vector<AdvertiserAccount> accounts(4);
  for (int i = 0; i < 4; ++i) {
    accounts[i].max_bid = {10.0 + i, 20.0};
    accounts[i].value_per_click = accounts[i].max_bid;
    accounts[i].spent_per_keyword = {1.0 * i, 0.5};
    accounts[i].value_gained = {2.0, 3.0 * i};
    accounts[i].amount_spent = 1.5 * i;
  }
  return accounts;
}

AuctionOutcome Outcome(int64_t time) {
  AuctionOutcome o;
  o.query.time = time;
  o.query.keyword = 1;
  o.wd.allocation = TwoOfThree();
  o.wd.expected_revenue = 7.25;
  o.prices = {4.0, 0.0, 2.5};
  UserEvent e0;
  e0.advertiser = 2;
  e0.slot = 0;
  e0.clicked = true;
  e0.charged = 4.0;
  UserEvent e2;
  e2.advertiser = 0;
  e2.slot = 2;
  o.events = {e0, e2};
  o.revenue_charged = 4.0;
  return o;
}

void TestFeasible() {
  ExpectPass(CheckFeasible(TwoOfThree(), 4, 3), "feasible allocation");
  Allocation twice = TwoOfThree();
  twice.slot_to_advertiser[1] = 2;  // advertiser 2 in slots 0 and 1
  ExpectFail(CheckFeasible(twice, 4, 3), "advertiser in two slots");
  Allocation unknown = TwoOfThree();
  unknown.slot_to_advertiser[1] = 9;
  ExpectFail(CheckFeasible(unknown, 4, 3), "unknown advertiser");
  Allocation stray = TwoOfThree();
  stray.advertiser_to_slot[3] = 1;  // placed but not in slot 1
  ExpectFail(CheckFeasible(stray, 4, 3), "placement without a slot");
}

void TestGspPrices() {
  const std::vector<AdvertiserAccount> accounts = Accounts();
  // Winners 2 (max_bid 20 on keyword 1) and 0 (max_bid 20).
  ExpectPass(CheckGspPrices({20.0, 0.0, 3.0}, TwoOfThree(), accounts, 1),
             "GSP prices within [0, max_bid]");
  ExpectFail(CheckGspPrices({20.5, 0.0, 3.0}, TwoOfThree(), accounts, 1),
             "GSP price above max_bid");
  ExpectFail(CheckGspPrices({1.0, 0.0, -0.5}, TwoOfThree(), accounts, 1),
             "negative GSP price");
  ExpectFail(CheckGspPrices({1.0, 2.0, 3.0}, TwoOfThree(), accounts, 1),
             "priced empty slot");
}

void TestLedger() {
  Ledger ledger;
  ledger.Add(Outcome(1));
  ledger.Add(Outcome(2));
  ExpectPass(CheckLedger(ledger, 8.0, 8.0), "ledger sums agree");
  ExpectFail(CheckLedger(ledger, 8.0, 9.0), "spend rise differs");
  ExpectFail(CheckLedger(ledger, 7.0, 8.0), "revenue rise differs");
  AuctionOutcome short_charged = Outcome(3);
  short_charged.revenue_charged = 3.0;  // events say 4.0
  Ledger bad;
  bad.Add(short_charged);
  ExpectFail(CheckLedger(bad, 3.0, 3.0), "revenue_charged != event charges");
}

void TestAccounts() {
  const std::vector<AdvertiserAccount> want = Accounts();
  ExpectPass(CheckAccountsBitwise(want, want), "identical accounts");
  std::vector<AdvertiserAccount> got = want;
  got[3].amount_spent = NextUp(got[3].amount_spent);
  ExpectFail(CheckAccountsBitwise(got, want), "spend one ulp off");
  got = want;
  got[1].value_gained[0] = NextUp(got[1].value_gained[0]);
  ExpectFail(CheckAccountsBitwise(got, want), "value gained one ulp off");
}

void TestDigests() {
  const AuctionOutcome o = Outcome(5);
  const SettlementRecord record = SettlementRecord::FromOutcome(5, o);
  ExpectPass(DigestOf(o) == DigestOf(record) ? "" : "digests differ",
             "outcome and record digests agree");
  AuctionOutcome other = o;
  other.events[0].charged = NextUp(other.events[0].charged);
  ExpectFail(DigestOf(o) == DigestOf(other) ? "" : "digests differ",
             "digest sees a one-ulp charge change");

  const std::vector<uint64_t> want = {1, 2, 3, 4};
  ExpectPass(CheckDigestPrefix({1, 2, 3, 9}, want, 3), "equal prefix");
  ExpectFail(CheckDigestPrefix({1, 7, 3, 4}, want, 3), "diverged prefix");
  ExpectFail(CheckDigestPrefix({1, 2}, want, 3), "short trajectory");
}

void TestReplay() {
  const Allocation a = TwoOfThree();
  const std::vector<Money> prices = {4.0, 0.0, 2.5};
  ExpectPass(CheckReplayMatches(a, prices, a, prices), "replay equals plan");
  Allocation moved = a;
  moved.slot_to_advertiser = {0, -1, 2};
  ExpectFail(CheckReplayMatches(a, prices, moved, prices),
             "replay allocates differently");
  ExpectFail(CheckReplayMatches(a, prices, a, {4.0, 0.0, NextUp(2.5)}),
             "replay price one ulp off");
}

void TestCompletionOrder() {
  ExpectPass(CheckCompletionOrder({1, 2, 3, 4}, 1, 4), "in-order completions");
  ExpectFail(CheckCompletionOrder({1, 3, 2, 4}, 1, 4), "reordered completion");
  ExpectFail(CheckCompletionOrder({1, 2, 2, 4}, 1, 4), "duplicate completion");
  ExpectFail(CheckCompletionOrder({1, 2, 3}, 1, 4), "missing completion");
}

void TestLogMatches() {
  std::vector<SettlementRecord> records;
  std::vector<uint64_t> digests;
  for (int64_t t = 1; t <= 3; ++t) {
    const AuctionOutcome o = Outcome(t);
    records.push_back(SettlementRecord::FromOutcome(t, o));
    digests.push_back(DigestOf(o));
  }
  ExpectPass(CheckLogMatches(records, digests), "log equals completions");
  std::vector<SettlementRecord> missing(records.begin(), records.end() - 1);
  ExpectFail(CheckLogMatches(missing, digests), "log misses a record");
  std::vector<SettlementRecord> gap = records;
  gap[1].seq = 7;
  ExpectFail(CheckLogMatches(gap, digests), "log sequence gap");
  std::vector<SettlementRecord> altered = records;
  altered[2].prices[0] = 5.0;
  ExpectFail(CheckLogMatches(altered, digests), "log record differs");
}

void TestGreedyBound() {
  // Advertiser 0: 5 in slot 0, 4 in slot 1; advertiser 1: 4 in slot 0,
  // 0 in slot 1. Greedy takes (0, slot 0) = 5 then nothing for 1 in slot 1:
  // 5. The optimum is (0, slot 1) + (1, slot 0) = 8.
  RevenueMatrix revenue(2, 2);
  revenue.Set(0, 0, 5.0);
  revenue.Set(0, 1, 4.0);
  revenue.Set(1, 0, 4.0);
  revenue.Set(1, 1, 0.0);
  const WdResult optimum =
      DetermineWinners(revenue, WdMethod::kReducedHungarian);
  ExpectPass(GreedyExpectedRevenue(revenue) == 5.0 ? "" : "greedy is not 5",
             "greedy allocation value");
  ExpectPass(CheckOptimalAtLeastGreedy(revenue, optimum), "optimum >= greedy");
  WdResult worse = optimum;
  worse.expected_revenue = 4.0;
  ExpectFail(CheckOptimalAtLeastGreedy(revenue, worse),
             "claimed optimum below greedy");
}

}  // namespace
}  // namespace perfbench
}  // namespace ssa

int main() {
  using namespace ssa::perfbench;
  TestFeasible();
  TestGspPrices();
  TestLedger();
  TestAccounts();
  TestDigests();
  TestReplay();
  TestCompletionOrder();
  TestLogMatches();
  TestGreedyBound();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
