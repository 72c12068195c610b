// The repository's benchmark: one process runs one named workload end to
// end and prints every metric as the last line of stdout, as one JSON object.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--out-dir <dir>]
//
// Every workload runs the same phases on its own population and offered
// rate, so every metric is defined on every workload; the share of the run
// each phase gets is what makes a workload stress its layers (see
// README.md):
//
//   setup     population, leader engine, settlement log, AuctionServer, and
//             the warm-up auctions of both (caches filled, ROI ladders ramped)
//   rounds    the run is cut into rounds of about 1.5 s; each round runs
//     engine  a closed loop on ShardedAuctionEngine (PlanAuction,
//             SettlePlanned, SettlementLogWriter::Append per auction),
//     served  open-loop Poisson arrivals into AuctionServer at a fixed
//             absolute rate, then a back-to-back burst for the ceiling,
//   follower  a FollowerEngine bootstrapped from a checkpoint catching up
//             on a settlement log, then what-if price reads against it.
//
// The engine and follower figures are taken once per round and the run
// reports their median over the rounds; the served latency and the ceiling
// are medians over every request or drain window of the run. Either way a
// stretch during which the (shared) host is slow moves them little. Output
// checks run in every run; any failure makes "correct" false. With
// --trace 1 the run also keeps spans in memory at every layer call, writes
// one Chrome trace-event file into --out-dir, and prints the per-layer
// metrics instead of the end-to-end ones.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "auction/auction_engine.h"
#include "auction/sharded_engine.h"
#include "auction/workload.h"
#include "checks.h"
#include "core/compiled_bids.h"
#include "core/expected_revenue.h"
#include "core/winner_determination.h"
#include "durability/settlement_log.h"
#include "durability/wire.h"
#include "replication/follower.h"
#include "replication/log_tailer.h"
#include "serving/auction_server.h"
#include "spans.h"
#include "strategy/program_strategy.h"
#include "strategy/roi_strategy.h"
#include "util/thread_pool.h"

namespace ssa {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main(): the cold set-up clock.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

enum class Population { kPaperRoi, kPrograms };

struct WorkloadSpec {
  const char* name;
  Population population;
  int advertisers;
  int slots;
  int keywords;
  double purchase_given_click;
  PricingRule pricing;
  // Shares of --seconds; what they leave goes to bursts, the follower's
  // catch-up and the checks.
  double engine_share;
  double open_share;
  double whatif_share;
  int warmup_auctions;     // leader engine, counted in setup
  int reference_prefix;    // measured auctions compared with the reference
  double offered_qps;      // fixed absolute open-loop rate
  int server_warmup;       // queries served before measuring, in setup
  int burst;               // back-to-back queries per round (ceiling probe)
  // Follower source. Served log: each round's follower restarts from its
  // predecessor's checkpoint, so over the run the served log is replayed
  // from seq 1. Engine log: each round's follower bootstraps from a leader
  // checkpoint taken `follower_share` before the end of the engine chunk.
  bool follow_served_log;
  double follower_share;
};

// Offered rates sit at about a fifth of each workload's ceiling on a 4-core
// host (README.md lists the measured ceilings), so a host running twice as
// slow still does not saturate. They are absolute, not relative to
// the measured ceiling, so a slower build sees the same load.
const WorkloadSpec kWorkloads[] = {
    // Figure 12's setting: n = 10 000 ROI bidders, 15 slots, 10 keywords,
    // reduced Hungarian + GSP. Time goes to the shard fan-out.
    {"paper_rh_10k", Population::kPaperRoi, 10000, 15, 10, 0.0,
     PricingRule::kGeneralizedSecondPrice, 0.30, 0.20, 0.12, 60, 100,
     40.0, 20, 40, false, 0.25},
    // The expressiveness case: interpreted Figure 5 programs over
    // multi-feature formulas, purchases on, VCG, 8 slots. Time goes to the
    // bidding-language interpreter during bid capture.
    {"expressive_programs", Population::kPrograms, 2000, 8, 8, 0.3,
     PricingRule::kVcg, 0.28, 0.16, 0.18, 30, 60,
     20.0, 10, 25, false, 0.35},
    // Serving + durability + replication: replay-mode server with a buffered
    // group-commit log; the follower replays the whole served log.
    {"served_replay_log", Population::kPaperRoi, 2000, 15, 10, 0.0,
     PricingRule::kGeneralizedSecondPrice, 0.15, 0.28, 0.12, 100, 200,
     200.0, 200, 200, true, 0},
};

constexpr double kRoundSeconds = 1.5;
constexpr int kAuctionBlock = 8;  // engine auctions per timed block
constexpr int kMinReads = 8;      // what-if reads per round, at least
// Completions per ceiling drain window: one full executor batch.
constexpr int kDrainWindow = 16;
// The load generator sleeps until this close to a send time, then spins, so
// its own wake-up delay stays out of the served latency.
constexpr uint64_t kSpinNs = 200'000;

// Figure 5's Equalize-ROI program (spend test in multiplied form, line-11
// comparison corrected), the program examples/expressive_program.cc runs.
constexpr const char kEqualizeRoi[] = R"sql(
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent < targetSpendRate * time THEN
    UPDATE Keywords SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid < maxbid;
  ELSEIF amtSpent > targetSpendRate * time THEN
    UPDATE Keywords SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid > 0;
  ENDIF;
  UPDATE Bids SET value =
    ( SELECT SUM( K.bid ) FROM Keywords K
      WHERE K.relevance > 0.7 AND K.formula = Bids.formula );
}
)sql";

Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed) {
  WorkloadConfig config;
  config.num_advertisers = spec.advertisers;
  config.num_slots = spec.slots;
  config.num_keywords = spec.keywords;
  config.purchase_given_click = spec.purchase_given_click;
  config.seed = seed;
  Workload workload = MakePaperWorkload(config);
  if (spec.population == Population::kPrograms) {
    const Formula formulas[] = {
        Formula::Click() && Formula::Slot(0),
        Formula::Purchase(),
        Formula::Click() && Formula::AnySlot({0, 1, 2}),
        Formula::Slot(0) || Formula::Click(),
    };
    for (int kw = 0; kw < spec.keywords; ++kw) {
      workload.keyword_formulas[kw] = formulas[kw % 4];
    }
  }
  return workload;
}

std::vector<std::unique_ptr<BiddingStrategy>> NativeStrategies(
    const Workload& workload) {
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (size_t i = 0; i < workload.accounts.size(); ++i) {
    strategies.push_back(
        std::make_unique<RoiStrategy>(workload.keyword_formulas));
  }
  return strategies;
}

std::vector<std::unique_ptr<BiddingStrategy>> MakeStrategies(
    const WorkloadSpec& spec, const Workload& workload) {
  if (spec.population == Population::kPaperRoi) {
    return NativeStrategies(workload);
  }
  std::vector<ProgramStrategy::KeywordSpec> keywords;
  for (int kw = 0; kw < spec.keywords; ++kw) {
    keywords.push_back({"kw" + std::to_string(kw),
                        workload.keyword_formulas[kw]});
  }
  std::vector<std::unique_ptr<BiddingStrategy>> strategies;
  for (size_t i = 0; i < workload.accounts.size(); ++i) {
    auto program = ProgramStrategy::Create(kEqualizeRoi, keywords);
    SSA_CHECK_MSG(program.ok(), "the Figure 5 program failed to parse");
    strategies.push_back(*std::move(program));
  }
  return strategies;
}

// --------------------------------------------------------------------------
// Small helpers
// --------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double total = 0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double Rate(int64_t ops, uint64_t start_ns, uint64_t end_ns) {
  if (ops <= 0 || end_ns <= start_ns) return 0;
  return static_cast<double>(ops) * 1e9 / static_cast<double>(end_ns - start_ns);
}

/// The figures of one round, printed as the run goes to show how far the
/// host drifts; the run reports the median over the rounds of the engine
/// and follower figures.
struct RoundFigures {
  double auctions_per_s = 0;
  double auction_ms_p50 = 0;
  double served_ms_p50 = 0;
  double served_ceiling_qps = 0;
  double follower_apply_per_s = 0;
  double whatif_reads_per_s = 0;
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// First failure of any output check; later ones only add to the count.
struct Verdict {
  std::string first;
  int64_t failures = 0;
  void Expect(const std::string& error, const char* where) {
    if (error.empty()) return;
    if (failures++ == 0) first = std::string(where) + ": " + error;
    if (failures <= 5) {
      std::fprintf(stderr, "CHECK FAILED (%s): %s\n", where, error.c_str());
    }
  }
  bool ok() const { return failures == 0; }
};

std::string StatusError(const Status& status) {
  return status.ok() ? "" : status.ToString();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Track ids of the harness's spans in the Chrome trace.
enum Track : int32_t {
  kEngineTrack = 1,
  kReplayTrack = 2,
  kServedTrack = 3,
  kFollowerTrack = 4,
  kLogTrack = 5,
};

// --------------------------------------------------------------------------
// The benchmark run
// --------------------------------------------------------------------------

class Run {
 public:
  Run(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace,
      const std::string& out_dir)
      : spec_(spec),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        out_dir_(out_dir),
        rounds_(std::max(2, static_cast<int>(std::lround(seconds /
                                                         kRoundSeconds)))),
        spans_(trace) {}

  int Execute();

 private:
  ShardedEngineConfig EngineConfigFor(ThreadPool* pool, int shards) const;
  void SetupLeader();
  void SetupServer();

  // Engine phase.
  void EngineAuction(bool measured, bool traced);
  void StageReplay(const ShardedAuctionEngine::CapturedBids& bids,
                   const Allocation& plan_allocation,
                   const std::vector<Money>& plan_prices, uint64_t op,
                   uint64_t parent);
  void EngineChunk(double budget_s);

  // Served phase.
  void OnServed(const AuctionOutcome& outcome);
  void Submit(int64_t index, uint64_t parent);
  void WaitServed(int64_t count);
  void ServedChunk(double open_s, int round);
  void StopServer();

  // Follower phase.
  void FollowerRound(bool final_round);
  void DurabilityLayer(const std::string& log_path,
                       const SettlementLogWriter& writer);

  // Checks and output.
  void ReferenceCheck();
  void FinalReplays();
  void Print(bool correct);

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string out_dir_;
  const int rounds_;
  std::string tmp_dir_;
  SpanLog spans_;
  Verdict verdict_;
  int64_t attempted_ = 0;
  double setup_s_ = 0;

  int pool_threads_ = 1;
  std::unique_ptr<ThreadPool> engine_pool_;
  std::unique_ptr<ThreadPool> serve_pool_;

  // Leader engine and its log.
  std::unique_ptr<ShardedAuctionEngine> leader_;
  std::unique_ptr<SettlementLogWriter> engine_log_;
  std::string engine_log_path_;
  std::string checkpoint_path_;  // this round's follower bootstraps from it
  std::string chain_checkpoint_path_;  // served-log follower, round to round
  std::unique_ptr<QueryGenerator> whatif_queries_;
  std::unique_ptr<QueryGenerator> engine_queries_;
  std::unique_ptr<Tracer> engine_tracer_;
  ShardedAuctionEngine::PlannedAuction plan_;
  ShardedAuctionEngine::CapturedBids peek_;
  std::vector<uint64_t> leader_digests_;
  std::vector<Money> leader_revenue_;  // total_revenue() after each auction
  Ledger engine_ledger_;
  std::vector<AdvertiserAccount> prefix_accounts_;
  int64_t prefix_auctions_ = 0;
  uint64_t excluded_ns_ = 0;  // trace-only work inside a timed block

  // The round in progress and the finished ones.
  RoundFigures round_;
  std::vector<RoundFigures> rounds_done_;

  // Engine-phase measurements.
  std::vector<double> auction_ms_;
  // Traced blocks only.
  std::vector<double> plan_ms_, settle_ms_, shard_busy_ms_, fanout_wait_ms_,
      capture_ms_;
  std::vector<double> shard_total_busy_ns_;
  int64_t cache_hits_ = 0, cache_misses_ = 0, traced_auctions_ = 0;
  double traced_wall_s_ = 0, untraced_wall_s_ = 0;
  int64_t untraced_auctions_ = 0;
  int64_t blocks_ = 0;
  std::vector<double> compile_ms_, matrix_ms_, topk_ms_, wd_ms_, pricing_ms_,
      candidates_, rows_;
  std::vector<CompiledBids> replay_compiled_;

  // Served phase.
  std::unique_ptr<AuctionServer> server_;
  std::string served_log_path_;
  std::unique_ptr<QueryGenerator> served_queries_;
  Rng arrivals_{1};
  std::vector<uint64_t> due_ns_;   // indexed by query time (1-based)
  std::vector<uint64_t> done_ns_;  // written by the completion hook
  std::vector<char> open_loop_;    // query time -> part of an open loop
  std::vector<int64_t> completion_times_;
  std::vector<uint64_t> completion_digests_;
  Ledger served_ledger_;
  Verdict served_verdict_;  // written on the executor, read after Stop()
  // Completions so far; the completion hook wakes WaitServed only once its
  // target is reached, so the waiting load generator takes no CPU from the
  // server while it drains.
  std::mutex served_mu_;
  std::condition_variable served_cv_;
  std::atomic<int64_t> served_done_{0};
  int64_t served_target_ = 0;  // guarded by served_mu_
  int64_t submitted_ = 0;
  double late_ms_max_ = 0;
  int64_t open_done_ = 0, open_batches_ = 0;
  std::vector<double> served_ms_;    // every open-loop request of the run
  std::vector<double> drain_qps_;    // every burst drain window of the run
  std::vector<double> queue_wait_ms_, serve_plan_ms_, serve_settle_ms_;

  // Follower phase.
  std::vector<double> whatif_ms_;
  double bytes_per_record_ = 0, records_per_commit_ = 0,
         decode_us_per_record_ = 0, poll_us_per_record_ = 0;
};

ShardedEngineConfig Run::EngineConfigFor(ThreadPool* pool, int shards) const {
  ShardedEngineConfig config;
  config.engine.wd_method = WdMethod::kReducedHungarian;
  config.engine.pricing = spec_.pricing;
  config.engine.seed = seed_ + 1;
  config.num_shards = shards;
  config.pool = pool;
  return config;
}

void Run::SetupLeader() {
  Workload workload = MakeWorkload(spec_, seed_);
  auto strategies = MakeStrategies(spec_, workload);
  leader_ = std::make_unique<ShardedAuctionEngine>(
      EngineConfigFor(engine_pool_.get(), pool_threads_), std::move(workload),
      std::move(strategies));
  // The leader's query stream: the generator and seed the engine (and the
  // serial reference) use internally, so PlanAuction + SettlePlanned on
  // these queries is exactly RunAuction().
  engine_queries_ = std::make_unique<QueryGenerator>(spec_.keywords, seed_ + 1);
  if (trace_) {
    TraceConfig config;
    config.sample_every = 1;
    config.ring_capacity = 1 << 17;
    engine_tracer_ = std::make_unique<Tracer>(config);
    leader_->set_tracer(engine_tracer_.get());
  }
  engine_log_path_ = tmp_dir_ + "/engine.log";
  checkpoint_path_ = tmp_dir_ + "/leader.ckpt";
  chain_checkpoint_path_ = tmp_dir_ + "/follower.ckpt";
  whatif_queries_ = std::make_unique<QueryGenerator>(spec_.keywords, seed_ + 11);
  LogWriterOptions options;
  options.sync = LogSyncMode::kBuffered;
  options.group_records = 32;
  auto writer = SettlementLogWriter::Open(engine_log_path_, options);
  SSA_CHECK_MSG(writer.ok(), "cannot open the engine settlement log");
  engine_log_ = *std::move(writer);
  for (int t = 0; t < spec_.warmup_auctions; ++t) {
    EngineAuction(/*measured=*/false, /*traced=*/false);
  }
}

void Run::SetupServer() {
  ServerConfig config;
  // Thread budget, min(4, nproc) runnable threads: the replay server plans
  // in its executor thread, fanning capture and plan out on nproc - 1 pool
  // threads while it waits, beside the load generator. Planning lanes would
  // plan each query serially on one thread, and one thread's speed on a
  // shared host drifts with whatever shares its core: with a lane the
  // served latency and ceiling spread two to three times wider across runs
  // (README.md).
  serve_pool_ = std::make_unique<ThreadPool>(std::max(1, pool_threads_ - 1));
  config.engine =
      EngineConfigFor(serve_pool_.get(), std::max(1, pool_threads_ - 1));
  config.mode = ServingMode::kDeterministicReplay;
  config.num_plan_lanes = 0;
  config.backpressure = BackpressurePolicy::kBlock;
  config.queue_capacity = 1024;
  config.max_batch_size = 16;
  config.batch_deadline = std::chrono::microseconds(200);
  served_log_path_ = tmp_dir_ + "/served.log";
  config.durability.log_path = served_log_path_;
  config.durability.writer.sync = LogSyncMode::kBuffered;
  config.durability.writer.group_records = 32;
  config.durability.recover_on_start = false;
  if (trace_) {
    config.obs.trace.sample_every = 1;
    config.obs.trace.ring_capacity = 1 << 19;
  }
  Workload workload = MakeWorkload(spec_, seed_);
  auto strategies = MakeStrategies(spec_, workload);
  server_ = std::make_unique<AuctionServer>(config, std::move(workload),
                                            std::move(strategies));
  server_->set_on_complete(
      [this](const AuctionOutcome& outcome) { OnServed(outcome); });
  served_queries_ =
      std::make_unique<QueryGenerator>(spec_.keywords, seed_ + 7);
  arrivals_ = Rng(seed_ * 0x9e3779b97f4a7c15ULL + 13);

  // Every request slot is sized up front: warm-up, open loops, bursts.
  const int64_t max_requests =
      spec_.server_warmup + static_cast<int64_t>(rounds_) * spec_.burst +
      static_cast<int64_t>(spec_.offered_qps * spec_.open_share * seconds_ *
                           2.0) + 64;
  due_ns_.assign(max_requests + 1, 0);
  done_ns_.assign(max_requests + 1, 0);
  open_loop_.assign(max_requests + 1, 0);
  completion_times_.reserve(max_requests);
  completion_digests_.reserve(max_requests);

  SSA_CHECK_MSG(server_->Start().ok(), "AuctionServer failed to start");
  for (int i = 0; i < spec_.server_warmup; ++i) {
    due_ns_[submitted_ + 1] = SpanLog::NowNs();
    Submit(submitted_ + 1, 0);
  }
  WaitServed(submitted_);
}

// --------------------------------------------------------------------------
// Engine phase
// --------------------------------------------------------------------------

void Run::EngineAuction(bool measured, bool traced) {
  const Query query = engine_queries_->Next();
  const uint64_t op = static_cast<uint64_t>(query.time);
  const int num_shards = leader_->num_shards();
  // One traced auction in 8 is also replayed stage by stage; its read-only
  // capture runs before PlanAuction so both see the same state.
  const bool sampled = traced && op % 8 == 0;
  if (sampled) {
    const uint64_t t0 = SpanLog::NowNs();
    leader_->CaptureBidsForRead(query, &peek_);
    const uint64_t t1 = SpanLog::NowNs();
    spans_.Leaf("ShardedAuctionEngine::CaptureBidsForRead", kReplayTrack, op,
                0, t0, t1);
    excluded_ns_ += t1 - t0;
  }
  std::vector<ShardedAuctionEngine::ShardStats> before;
  if (traced) {
    for (int s = 0; s < num_shards; ++s) before.push_back(leader_->shard_stats(s));
  }
  const uint64_t root = spans_.Open();
  const uint64_t t0 = SpanLog::NowNs();
  leader_->PlanAuction(query, &plan_, traced ? op : 0);
  const uint64_t t1 = SpanLog::NowNs();
  // SettlePlanned moves the plan into the outcome; keep what the replay
  // compares against.
  const Allocation planned_allocation =
      sampled ? plan_.outcome.wd.allocation : Allocation{};
  const std::vector<Money> planned_prices =
      sampled ? plan_.prices : std::vector<Money>{};
  const double program_eval_ms = plan_.outcome.program_eval_ms;
  const AuctionOutcome& outcome = leader_->SettlePlanned(&plan_);
  const uint64_t t2 = SpanLog::NowNs();
  verdict_.Expect(StatusError(engine_log_->Append(SettlementRecord::FromOutcome(
                      static_cast<uint64_t>(leader_->auctions_run()), outcome))),
                  "engine log append");
  const uint64_t t3 = SpanLog::NowNs();

  verdict_.Expect(
      CheckFeasible(outcome.wd.allocation, spec_.advertisers, spec_.slots),
      "engine allocation");
  if (spec_.pricing == PricingRule::kGeneralizedSecondPrice) {
    verdict_.Expect(CheckGspPrices(outcome.prices, outcome.wd.allocation,
                                   leader_->accounts(), query.keyword),
                    "engine GSP prices");
  }
  leader_digests_.push_back(DigestOf(outcome));
  leader_revenue_.push_back(leader_->total_revenue());
  if (measured) {
    engine_ledger_.Add(outcome);
    auction_ms_.push_back(Ms(t2 - t0));
  }

  if (traced) {
    spans_.Leaf("ShardedAuctionEngine::PlanAuction", kEngineTrack, op, root,
                t0, t1);
    spans_.Leaf("ShardedAuctionEngine::SettlePlanned", kEngineTrack, op, root,
                t1, t2);
    spans_.Leaf("SettlementLogWriter::Append", kEngineTrack, op, root, t2, t3);
    spans_.Close(root, "auction", kEngineTrack, op, 0, t0, t3);
    plan_ms_.push_back(Ms(t1 - t0));
    settle_ms_.push_back(Ms(t2 - t1));
    // Per-shard work clocks by delta: capture_ns (bid capture) and phase_ns
    // (compile + matrix rows + local top-k) of this auction.
    double busy = 0, capture = 0, max_capture = 0, max_phase = 0;
    shard_total_busy_ns_.resize(num_shards, 0.0);
    for (int s = 0; s < num_shards; ++s) {
      const ShardedAuctionEngine::ShardStats after = leader_->shard_stats(s);
      const double c =
          static_cast<double>(after.capture_ns - before[s].capture_ns);
      const double p = static_cast<double>(after.phase_ns - before[s].phase_ns);
      busy += c + p;
      capture += c;
      max_capture = std::max(max_capture, c);
      max_phase = std::max(max_phase, p);
      shard_total_busy_ns_[s] += c + p;
      cache_hits_ += after.cache_hits - before[s].cache_hits;
      cache_misses_ += after.cache_misses - before[s].cache_misses;
    }
    shard_busy_ms_.push_back(busy / 1e6);
    capture_ms_.push_back(capture / 1e6);
    // Both fan-outs' wall time minus the slowest shard's work in each:
    // what the pool's dispatch and the wait for stragglers cost.
    fanout_wait_ms_.push_back(
        std::max(0.0, program_eval_ms - (max_capture + max_phase) / 1e6));
    ++traced_auctions_;
  }
  if (sampled) {
    const uint64_t r0 = SpanLog::NowNs();
    StageReplay(peek_, planned_allocation, planned_prices, op, root);
    excluded_ns_ += SpanLog::NowNs() - r0;
  }
}

void Run::StageReplay(const ShardedAuctionEngine::CapturedBids& bids,
                      const Allocation& plan_allocation,
                      const std::vector<Money>& plan_prices, uint64_t op,
                      uint64_t parent) {
  const int n = spec_.advertisers;
  const int k = spec_.slots;
  const ClickModel& model = *leader_->workload().click_model;
  const uint64_t root = spans_.Open();
  replay_compiled_.resize(n);
  size_t rows = 0;
  const uint64_t t0 = SpanLog::NowNs();
  for (int i = 0; i < n; ++i) {
    replay_compiled_[i].CompileFrom(bids[i], k);
    rows += bids[i].size();
  }
  const uint64_t t1 = SpanLog::NowNs();
  std::vector<const CompiledBids*> view(n);
  for (int i = 0; i < n; ++i) view[i] = &replay_compiled_[i];
  const RevenueMatrix revenue = BuildRevenueMatrixCompiled(view, model);
  const uint64_t t2 = SpanLog::NowNs();
  const std::vector<AdvertiserId> candidates =
      SelectTopPerSlotCandidates(revenue, k);
  const uint64_t t3 = SpanLog::NowNs();
  const WdResult wd = SolveOnCandidates(revenue, candidates);
  const uint64_t t4 = SpanLog::NowNs();
  const std::vector<Money> prices =
      ComputePrices(spec_.pricing, revenue, model, wd.allocation);
  const uint64_t t5 = SpanLog::NowNs();
  spans_.Leaf("CompiledBids::Compile", kReplayTrack, op, root, t0, t1);
  spans_.Leaf("BuildRevenueMatrixCompiled", kReplayTrack, op, root, t1, t2);
  spans_.Leaf("SelectTopPerSlotCandidates", kReplayTrack, op, root, t2, t3);
  spans_.Leaf("SolveOnCandidates", kReplayTrack, op, root, t3, t4);
  spans_.Leaf("ComputePrices", kReplayTrack, op, root, t4, t5);
  spans_.Close(root, "stage replay", kReplayTrack, op, parent, t0, t5);
  compile_ms_.push_back(Ms(t1 - t0));
  matrix_ms_.push_back(Ms(t2 - t1));
  topk_ms_.push_back(Ms(t3 - t2));
  wd_ms_.push_back(Ms(t4 - t3));
  pricing_ms_.push_back(Ms(t5 - t4));
  candidates_.push_back(static_cast<double>(candidates.size()));
  rows_.push_back(static_cast<double>(rows));

  verdict_.Expect(
      CheckReplayMatches(plan_allocation, plan_prices, wd.allocation, prices),
      "stage replay");
  verdict_.Expect(CheckOptimalAtLeastGreedy(revenue, wd), "greedy bound");
}

void Run::EngineChunk(double budget_s) {
  const int64_t prefix_at = spec_.warmup_auctions + spec_.reference_prefix;
  // Whole blocks of auctions; traced runs alternate untraced and traced
  // blocks so the tracing overhead is measured on the same stretch of the
  // trajectory.
  const Clock::time_point start = Clock::now();
  int64_t chunk_blocks = 0, chunk_untraced = 0;
  double chunk_untraced_s = 0;
  bool checkpointed = spec_.follow_served_log;
  // At least one block follows the checkpoint, so the follower always has
  // records to apply, even when a host stall stretches the block that
  // would have crossed its time.
  int64_t blocks_after_checkpoint = 0;
  while (chunk_blocks < 2 || SecondsSince(start) < budget_s ||
         blocks_after_checkpoint == 0) {
    if (!checkpointed && chunk_blocks > 0 &&
        SecondsSince(start) >= (1.0 - spec_.follower_share) * budget_s) {
      // This round's follower bootstraps here and applies the rest of the
      // chunk. Written between blocks, so no block's time includes it.
      verdict_.Expect(StatusError(leader_->WriteCheckpoint(checkpoint_path_)),
                      "leader checkpoint");
      checkpointed = true;
    }
    const bool traced = trace_ && blocks_ % 2 == 1;
    excluded_ns_ = 0;
    const Clock::time_point b0 = Clock::now();
    for (int i = 0; i < kAuctionBlock; ++i) {
      EngineAuction(/*measured=*/true, traced);
      if (leader_->auctions_run() == prefix_at) {
        const uint64_t c0 = SpanLog::NowNs();
        prefix_accounts_ = leader_->accounts();
        prefix_auctions_ = prefix_at;
        excluded_ns_ += SpanLog::NowNs() - c0;
      }
    }
    const double block_s =
        SecondsSince(b0) - static_cast<double>(excluded_ns_) / 1e9;
    if (traced) {
      traced_wall_s_ += block_s;
    } else {
      chunk_untraced_s += block_s;
      chunk_untraced += kAuctionBlock;
    }
    ++chunk_blocks;
    ++blocks_;
    if (checkpointed) ++blocks_after_checkpoint;
  }
  attempted_ += chunk_blocks * kAuctionBlock;
  untraced_wall_s_ += chunk_untraced_s;
  untraced_auctions_ += chunk_untraced;
  round_.auctions_per_s =
      static_cast<double>(chunk_untraced) / chunk_untraced_s;
}

// --------------------------------------------------------------------------
// Served phase
// --------------------------------------------------------------------------

void Run::OnServed(const AuctionOutcome& outcome) {
  // Executor thread, in settlement order. It owns the served engine, so
  // reading its accounts here is race-free.
  const uint64_t now = SpanLog::NowNs();
  const int64_t index = outcome.query.time;
  if (index >= 1 && index < static_cast<int64_t>(done_ns_.size())) {
    done_ns_[index] = now;
  }
  completion_times_.push_back(index);
  completion_digests_.push_back(DigestOf(outcome));
  served_ledger_.Add(outcome);
  served_verdict_.Expect(
      CheckFeasible(outcome.wd.allocation, spec_.advertisers, spec_.slots),
      "served allocation");
  if (spec_.pricing == PricingRule::kGeneralizedSecondPrice) {
    served_verdict_.Expect(
        CheckGspPrices(outcome.prices, outcome.wd.allocation,
                       server_->engine().accounts(), outcome.query.keyword),
        "served GSP prices");
  }
  std::lock_guard<std::mutex> lock(served_mu_);
  if (served_done_.fetch_add(1, std::memory_order_release) + 1 >=
      served_target_) {
    served_cv_.notify_one();
  }
}

void Run::Submit(int64_t index, uint64_t parent) {
  Query query = served_queries_->Next();
  SSA_CHECK(query.time == index);
  const uint64_t t0 = SpanLog::NowNs();
  const QueuePushResult result = server_->Submit(std::move(query));
  spans_.Leaf("AuctionServer::Submit", kServedTrack, index, parent, t0,
              SpanLog::NowNs());
  verdict_.Expect(result == QueuePushResult::kAccepted ? "" : "not admitted",
                  "served submit");
  submitted_ = index;
}

void Run::WaitServed(int64_t count) {
  std::unique_lock<std::mutex> lock(served_mu_);
  served_target_ = count;
  served_cv_.wait(lock, [&] {
    return served_done_.load(std::memory_order_acquire) >= count;
  });
}

void Run::ServedChunk(double open_s, int round) {
  const int64_t batches_before = server_->batches();
  const int64_t done_before = served_done_.load(std::memory_order_acquire);
  // Open loop: Poisson arrivals at the fixed offered rate, each request timed
  // from its scheduled send time to its completion hook.
  const uint64_t start = SpanLog::NowNs() + 1'000'000;
  const uint64_t end = start + static_cast<uint64_t>(open_s * 1e9);
  const int64_t first_open = submitted_ + 1;
  // Request slots left once this and every later round's burst is reserved.
  const int64_t open_capacity =
      static_cast<int64_t>(due_ns_.size()) - 1 -
      static_cast<int64_t>(rounds_ - round) * spec_.burst;
  double t = 0;
  std::vector<uint64_t> request_span;
  for (;;) {
    t += -std::log(1.0 - arrivals_.NextDouble()) / spec_.offered_qps;
    const uint64_t due = start + static_cast<uint64_t>(t * 1e9);
    if (due >= end) break;
    if (submitted_ + 1 > open_capacity) {
      // Sized for twice the expected arrivals, so this is not seen in practice;
      // a cut open loop would bias served_ms_p50.
      verdict_.Expect("open-loop request slots exhausted", "served open loop");
      break;
    }
    if (SpanLog::NowNs() + kSpinNs < due) {
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(static_cast<int64_t>(due - kSpinNs))));
    }
    while (SpanLog::NowNs() < due) {
    }
    const int64_t index = submitted_ + 1;
    due_ns_[index] = due;
    open_loop_[index] = 1;
    const uint64_t sent = SpanLog::NowNs();
    late_ms_max_ = std::max(late_ms_max_, sent > due ? Ms(sent - due) : 0.0);
    request_span.push_back(spans_.Open());
    Submit(index, request_span.back());
  }
  const int64_t last_open = submitted_;
  WaitServed(submitted_);
  std::vector<double> served_ms;
  for (int64_t i = first_open; i <= last_open; ++i) {
    served_ms.push_back(Ms(done_ns_[i] - due_ns_[i]));
    spans_.Close(request_span[i - first_open], "served request", kServedTrack,
                 i, 0, due_ns_[i], done_ns_[i]);
  }
  // A round may see no Poisson arrival at the low offered rates (the run's
  // median pools every round); the run as a whole must see some.
  served_ms_.insert(served_ms_.end(), served_ms.begin(), served_ms.end());
  round_.served_ms_p50 = Quantile(std::move(served_ms), 0.5);
  open_done_ += served_done_.load(std::memory_order_acquire) - done_before;
  open_batches_ += server_->batches() - batches_before;

  // Ceiling: a burst submitted back-to-back under kBlock; queries over the
  // time to drain them.
  const uint64_t b0 = SpanLog::NowNs();
  const uint64_t burst_span = spans_.Open();
  const int64_t first_burst = submitted_ + 1;
  for (int i = 0; i < spec_.burst; ++i) {
    due_ns_[submitted_ + 1] = b0;
    Submit(submitted_ + 1, burst_span);
  }
  WaitServed(submitted_);
  const uint64_t drained = done_ns_[submitted_];  // completions are in order
  round_.served_ceiling_qps = Rate(spec_.burst, b0, drained);
  // The run's ceiling is the median drain rate over windows of consecutive
  // burst completions, so a host stall inside a burst costs a few windows
  // instead of the whole burst's rate.
  for (int64_t i = first_burst + kDrainWindow; i <= submitted_; ++i) {
    drain_qps_.push_back(Rate(kDrainWindow, done_ns_[i - kDrainWindow],
                              done_ns_[i]));
  }
  spans_.Close(burst_span, "served burst", kServedTrack, first_burst, 0, b0,
               drained);
  attempted_ += submitted_ - (first_open - 1);
}

void Run::StopServer() {
  server_->Stop();
  verdict_.Expect(served_verdict_.first, "served");
  verdict_.Expect(CheckCompletionOrder(completion_times_, 1, submitted_),
                  "served completion order");
  verdict_.Expect(StatusError(server_->log_status()), "served log");
  std::vector<SettlementRecord> records;
  LogReadStats stats;
  verdict_.Expect(
      StatusError(ReadSettlementLog(served_log_path_, &records, &stats)),
      "served log read");
  verdict_.Expect(CheckLogMatches(records, completion_digests_),
                  "served log contents");
  verdict_.Expect(CheckLedger(served_ledger_, server_->engine().total_revenue(),
                              TotalSpend(server_->engine().accounts())),
                  "served ledger");
  if (!trace_) return;

  // Serving stage times come from the server's own tracer (every query
  // sampled in traced runs), open-loop requests only.
  std::vector<TraceEvent> events = server_->DrainTrace();
  std::vector<double> capture_plan(submitted_ + 1, 0.0);
  for (const TraceEvent& e : events) {
    if (e.seq == 0 || e.seq > static_cast<uint64_t>(submitted_) ||
        !open_loop_[e.seq]) {
      continue;
    }
    const double ms = Ms(e.end_ns - e.start_ns);
    switch (e.stage) {
      case TraceStage::kQueueWait:
        queue_wait_ms_.push_back(ms);
        break;
      case TraceStage::kCapture:
      case TraceStage::kPlan:
        capture_plan[e.seq] += ms;
        break;
      case TraceStage::kSettle:
        serve_settle_ms_.push_back(ms);
        break;
      default:
        break;
    }
  }
  for (int64_t i = 1; i <= submitted_; ++i) {
    if (open_loop_[i]) serve_plan_ms_.push_back(capture_plan[i]);
  }
  spans_.AddProgramSpans(std::move(events));
}

// --------------------------------------------------------------------------
// Follower phase
// --------------------------------------------------------------------------

void Run::DurabilityLayer(const std::string& log_path,
                          const SettlementLogWriter& writer) {
  const int64_t records = writer.records_appended();
  bytes_per_record_ = static_cast<double>(writer.bytes_written()) /
                      static_cast<double>(records);
  records_per_commit_ =
      static_cast<double>(records) /
      static_cast<double>(std::max<int64_t>(1, writer.commits()));
  std::string data;
  verdict_.Expect(StatusError(ReadFileToString(log_path, &data)),
                  "log file read");
  // Decode every frame; three passes so the figure is not one cold pass.
  int64_t decoded = 0;
  const uint64_t t0 = SpanLog::NowNs();
  for (int pass = 0; pass < 3; ++pass) {
    size_t pos = 0;
    SettlementRecord record;
    size_t frame_bytes = 0;
    while (pos < data.size() &&
           ParseLogFrame(data, pos, &record, &frame_bytes) ==
               FrameParse::kRecord) {
      pos += frame_bytes;
      ++decoded;
    }
    if (pass == 0 && pos != data.size()) {
      verdict_.Expect("undecodable frame in the log", "log decode");
    }
  }
  const uint64_t t1 = SpanLog::NowNs();
  spans_.Leaf("ParseLogFrame", kLogTrack, 0, 0, t0, t1);
  decode_us_per_record_ =
      static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(decoded);
  verdict_.Expect(decoded == 3 * records ? "" : "log record count mismatch",
                  "log decode");

  auto tailer = LogTailer::Open(log_path);
  verdict_.Expect(StatusError(tailer.status()), "log tailer");
  if (!tailer.ok()) return;
  std::vector<SettlementRecord> polled;
  const uint64_t p0 = SpanLog::NowNs();
  const Status status = (*tailer)->Poll(&polled);
  const uint64_t p1 = SpanLog::NowNs();
  spans_.Leaf("LogTailer::Poll", kLogTrack, 0, 0, p0, p1);
  verdict_.Expect(StatusError(status), "log tailer poll");
  verdict_.Expect(static_cast<int64_t>(polled.size()) == records
                      ? ""
                      : "tailer delivered a different record count",
                  "log tailer poll");
  poll_us_per_record_ =
      static_cast<double>(p1 - p0) / 1e3 / static_cast<double>(records);
}

void Run::FollowerRound(bool final_round) {
  FollowerConfig config;
  config.poll_interval = std::chrono::milliseconds(5);
  config.engine = EngineConfigFor(engine_pool_.get(), pool_threads_);
  // Traced runs keep the follower's per-record apply spans for the trace
  // file; untraced followers run in their default configuration.
  std::unique_ptr<Tracer> apply_tracer;
  if (trace_) {
    TraceConfig apply_trace;
    apply_trace.sample_every = 1;
    apply_trace.ring_capacity = 1 << 16;
    apply_tracer = std::make_unique<Tracer>(apply_trace);
    config.tracer = apply_tracer.get();
  }
  const ShardedAuctionEngine* leader = nullptr;
  uint64_t target = 0;
  if (spec_.follow_served_log) {
    // Mid-run the served log holds whole group commits only (Stop() flushes
    // the rest), so the follower's target is what the file holds. The
    // executor is idle between served chunks, so reading is race-free.
    config.log_path = served_log_path_;
    config.checkpoint_path = chain_checkpoint_path_;  // none before round 0
    leader = &server_->engine();
    std::vector<SettlementRecord> records;
    LogReadStats stats;
    verdict_.Expect(
        StatusError(ReadSettlementLog(served_log_path_, &records, &stats)),
        "served log read");
    target = stats.last_seq;
  } else {
    verdict_.Expect(StatusError(engine_log_->Flush()), "engine log flush");
    config.log_path = engine_log_path_;
    config.checkpoint_path = checkpoint_path_;
    leader = leader_.get();
    target = static_cast<uint64_t>(leader->auctions_run());
  }
  // The replica holds the leader's exact state: always on the engine log;
  // on the served log once the server has stopped and flushed.
  const bool in_step = !spec_.follow_served_log || final_round;

  Workload workload = MakeWorkload(spec_, seed_);
  auto strategies = MakeStrategies(spec_, workload);
  FollowerEngine follower(config, std::move(workload), std::move(strategies));
  // Start() bootstraps (checkpoint restore) before it returns and then
  // starts the apply thread, so the catch-up is timed from its return to
  // WaitForSeq's: the tailer's polls plus the applies.
  const uint64_t f0 = SpanLog::NowNs();
  const Status started = follower.Start();
  verdict_.Expect(StatusError(started), "follower start");
  const uint64_t f1 = SpanLog::NowNs();
  const bool caught_up =
      started.ok() && follower.WaitForSeq(target, std::chrono::seconds(120));
  const uint64_t f2 = SpanLog::NowNs();
  spans_.Leaf("FollowerEngine::Start", kFollowerTrack, target, 0, f0, f1);
  spans_.Leaf("FollowerEngine catch-up", kFollowerTrack, target, 0, f1, f2);
  verdict_.Expect(caught_up ? "" : "follower did not catch up: " +
                                       follower.status().ToString(),
                  "follower");
  // A checkpoint restore applies no records: every one counted was applied
  // by the thread Start() launched as it returned.
  const int64_t applied = follower.records_applied();
  // The final round applies only the tail the stopped server flushed; it
  // counts in attempted but not in the round figures.
  round_.follower_apply_per_s = Rate(applied, f1, f2);
  verdict_.Expect(applied > 0 || final_round ? "" : "no record to apply",
                  "follower");
  if (apply_tracer) spans_.AddProgramSpans(apply_tracer->Drain());
  attempted_ += applied;
  if (caught_up && in_step) {
    std::vector<AdvertiserAccount> replica;
    const Status snap = follower.AccountsSnapshot(&replica);
    verdict_.Expect(
        snap.ok() ? CheckAccountsBitwise(replica, leader->accounts())
                  : snap.ToString(),
        "follower replica");
  }

  // What-if price reads against the caught-up replica, back to back.
  std::vector<Query> queries;
  std::vector<ShardedAuctionEngine::PlannedAuction> first_plans;
  const uint64_t w0 = SpanLog::NowNs();
  const uint64_t window_ns =
      static_cast<uint64_t>(spec_.whatif_share * seconds_ / rounds_ * 1e9);
  int64_t reads = 0;
  uint64_t now = w0;
  while (reads < kMinReads || now - w0 < window_ns) {
    const Query query = whatif_queries_->Next();
    ShardedAuctionEngine::PlannedAuction plan;
    const uint64_t r0 = now;
    const Status status = follower.WhatIf(query, &plan);
    now = SpanLog::NowNs();
    spans_.Leaf("FollowerEngine::WhatIf", kFollowerTrack, ++reads, 0, r0, now);
    verdict_.Expect(StatusError(status), "what-if read");
    whatif_ms_.push_back(Ms(now - r0));
    if (in_step && queries.size() < 2) {
      queries.push_back(query);
      first_plans.push_back(std::move(plan));
    }
  }
  round_.whatif_reads_per_s = Rate(reads, w0, now);
  attempted_ += reads;
  if (spec_.follow_served_log) {
    verdict_.Expect(
        StatusError(follower.WriteCheckpoint(chain_checkpoint_path_)),
        "follower checkpoint");
  }
  follower.Stop();

  // Both replicas hold the same state, so the leader's what-if on the same
  // queries must plan bitwise the same.
  if (queries.empty()) return;
  auto lane = leader->NewPlanLane();
  for (size_t i = 0; i < queries.size(); ++i) {
    ShardedAuctionEngine::PlannedAuction expected;
    const uint64_t l0 = SpanLog::NowNs();
    leader->WhatIfAuction(queries[i], lane.get(), &expected);
    spans_.Leaf("ShardedAuctionEngine::WhatIfAuction", kFollowerTrack, i + 1,
                0, l0, SpanLog::NowNs());
    verdict_.Expect(CheckReplayMatches(expected.outcome.wd.allocation,
                                       expected.prices,
                                       first_plans[i].outcome.wd.allocation,
                                       first_plans[i].prices),
                    "what-if vs leader");
  }
}

// --------------------------------------------------------------------------
// Reference trajectories
// --------------------------------------------------------------------------

void Run::ReferenceCheck() {
  if (prefix_auctions_ == 0) {
    verdict_.Expect("run too short for the reference prefix", "reference");
    return;
  }
  // ROI populations: the serial AuctionEngine on the same seeds. Program
  // populations: the same engine with native RoiStrategy bidders, the
  // interpreted Figure 5 program's twin. Either way the trajectory must be
  // bitwise the leader's over the prefix.
  Workload workload = MakeWorkload(spec_, seed_);
  auto strategies = NativeStrategies(workload);
  AuctionEngine reference(EngineConfigFor(nullptr, 1).engine,
                          std::move(workload), std::move(strategies));
  std::vector<uint64_t> digests;
  for (int64_t t = 0; t < prefix_auctions_; ++t) {
    digests.push_back(DigestOf(reference.RunAuction()));
  }
  verdict_.Expect(CheckDigestPrefix(leader_digests_, digests,
                                    static_cast<size_t>(prefix_auctions_)),
                  "reference trajectory");
  verdict_.Expect(
      reference.total_revenue() == leader_revenue_[prefix_auctions_ - 1]
          ? ""
          : "total revenue differs",
      "reference revenue");
  verdict_.Expect(CheckAccountsBitwise(prefix_accounts_, reference.accounts()),
                  "reference accounts");
}

void Run::FinalReplays() {
  // Untraced runs check the stage replay and the greedy bound too, on two
  // auctions after everything else has been measured.
  for (int i = 0; i < 2; ++i) {
    const Query query = engine_queries_->Next();
    leader_->CaptureBidsForRead(query, &peek_);
    ShardedAuctionEngine::PlannedAuction plan;
    leader_->PlanAuction(query, &plan);
    StageReplay(peek_, plan.outcome.wd.allocation, plan.prices,
                static_cast<uint64_t>(query.time), 0);
    leader_->SettlePlanned(&plan);
  }
}

// --------------------------------------------------------------------------
// Output
// --------------------------------------------------------------------------

void Run::Print(bool correct) {
  std::vector<Metric> metrics;
  if (!trace_) {
    // Medians over the rounds, or over every request or drain window of the
    // run: a slow stretch of the host that covers fewer than half of them
    // barely moves these.
    auto median = [this](double RoundFigures::*field) {
      std::vector<double> values;
      for (const RoundFigures& round : rounds_done_) {
        values.push_back(round.*field);
      }
      return Quantile(std::move(values), 0.5);
    };
    metrics = {
        {"setup_s", setup_s_, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"auctions_per_s", median(&RoundFigures::auctions_per_s), "1/s"},
        {"auction_ms_p50", median(&RoundFigures::auction_ms_p50), "ms"},
        {"served_ms_p50", Quantile(served_ms_, 0.5), "ms"},
        {"served_ceiling_qps", Quantile(drain_qps_, 0.5), "1/s"},
        {"follower_apply_per_s", median(&RoundFigures::follower_apply_per_s),
         "records/s"},
    };
  } else {
    const double gap = *std::max_element(shard_total_busy_ns_.begin(),
                                         shard_total_busy_ns_.end()) /
                       Mean(shard_total_busy_ns_);
    const double lookups = static_cast<double>(cache_hits_ + cache_misses_);
    const double traced_per_auction =
        traced_wall_s_ / static_cast<double>(traced_auctions_);
    const double untraced_per_auction =
        untraced_wall_s_ / static_cast<double>(untraced_auctions_);
    metrics = {
        {"auction.plan_ms", Mean(plan_ms_), "ms"},
        {"auction.settle_ms", Mean(settle_ms_), "ms"},
        {"auction.shard_busy_ms", Mean(shard_busy_ms_), "ms"},
        {"auction.shard_gap", gap, "ratio"},
        {"auction.fanout_wait_ms", Mean(fanout_wait_ms_), "ms"},
        {"auction.pricing_ms", Mean(pricing_ms_), "ms"},
        {"strategy.capture_ms", Mean(capture_ms_), "ms"},
        {"strategy.rows_per_auction", Mean(rows_), "count"},
        {"core.compile_hit_ratio", static_cast<double>(cache_hits_) / lookups,
         "ratio"},
        {"core.compile_misses_per_auction",
         static_cast<double>(cache_misses_) /
             static_cast<double>(traced_auctions_),
         "count"},
        {"core.compile_ms", Mean(compile_ms_), "ms"},
        {"core.matrix_ms", Mean(matrix_ms_), "ms"},
        {"core.topk_ms", Mean(topk_ms_), "ms"},
        {"core.wd_ms", Mean(wd_ms_), "ms"},
        {"core.candidates_per_auction", Mean(candidates_), "count"},
        {"serving.queue_wait_ms_p50", Quantile(queue_wait_ms_, 0.5), "ms"},
        {"serving.plan_ms_p50", Quantile(serve_plan_ms_, 0.5), "ms"},
        {"serving.settle_ms_p50", Quantile(serve_settle_ms_, 0.5), "ms"},
        {"serving.batch_size_mean",
         static_cast<double>(open_done_) / static_cast<double>(open_batches_),
         "count"},
        {"loadgen.late_ms_max", late_ms_max_, "ms"},
        {"durability.bytes_per_record", bytes_per_record_, "bytes"},
        {"durability.records_per_commit", records_per_commit_, "count"},
        {"durability.decode_us_per_record", decode_us_per_record_, "us"},
        {"durability.poll_us_per_record", poll_us_per_record_, "us"},
        {"replication.whatif_ms_p50", Quantile(whatif_ms_, 0.5), "ms"},
        {"obs.trace_overhead_ratio", traced_per_auction / untraced_per_auction,
         "ratio"},
    };
  }
  for (const Metric& m : metrics) {
    std::printf("# %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": 0, \"metrics\": {",
              correct ? "true" : "false", attempted_);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Run::Execute() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  pool_threads_ = static_cast<int>(std::min(4u, hw));
  tmp_dir_ = out_dir_ + "/tmp-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(tmp_dir_, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", tmp_dir_.c_str(),
                 ec.message().c_str());
    return 2;
  }
  engine_pool_ = std::make_unique<ThreadPool>(pool_threads_);

  SetupLeader();
  SetupServer();
  setup_s_ = SecondsSince(kProcessStart);
  std::printf("# workload %s seed %" PRIu64 " seconds %.0f trace %d nproc %u "
              "rounds %d\n",
              spec_.name, seed_, seconds_, trace_ ? 1 : 0, hw, rounds_);

  const double revenue_start = leader_->total_revenue();
  const double spend_start = TotalSpend(leader_->accounts());
  for (int r = 0; r < rounds_; ++r) {
    round_ = RoundFigures{};
    const size_t auctions = auction_ms_.size();
    EngineChunk(spec_.engine_share * seconds_ / rounds_);
    round_.auction_ms_p50 = Quantile(
        std::vector<double>(auction_ms_.begin() + auctions, auction_ms_.end()),
        0.5);
    ServedChunk(spec_.open_share * seconds_ / rounds_, r);
    FollowerRound(/*final_round=*/false);
    // How far the host drifts from round to round.
    std::printf("# round %d: %.1f auctions/s, auction p50 %.3f ms, served p50 "
                "%.3f ms, ceiling %.1f/s, apply %.1f/s, what-if %.1f/s\n",
                r, round_.auctions_per_s, round_.auction_ms_p50,
                round_.served_ms_p50, round_.served_ceiling_qps,
                round_.follower_apply_per_s, round_.whatif_reads_per_s);
    rounds_done_.push_back(round_);
  }
  verdict_.Expect(served_ms_.empty() ? "no open-loop request in the run" : "",
                  "served open loop");
  verdict_.Expect(
      CheckLedger(engine_ledger_, leader_->total_revenue() - revenue_start,
                  TotalSpend(leader_->accounts()) - spend_start),
      "engine ledger");
  StopServer();
  if (spec_.follow_served_log) {
    FollowerRound(/*final_round=*/true);  // applies the flushed tail
    DurabilityLayer(served_log_path_, *server_->log_writer());
  } else {
    DurabilityLayer(engine_log_path_, *engine_log_);
  }
  server_.reset();  // joins the executor
  serve_pool_.reset();
  ReferenceCheck();
  FinalReplays();

  if (trace_) {
    spans_.AddProgramSpans(engine_tracer_->Drain());
    // One file per workload, the latest traced run's: traces of the served
    // workloads run to tens of MB.
    const std::string path = out_dir_ + "/trace-" + spec_.name + ".json";
    if (!spans_.WriteChromeTrace(path)) {
      verdict_.Expect("cannot write " + path, "trace");
    }
    std::printf("# trace %s: %zu spans over", path.c_str(), spans_.size());
    for (const std::string& name : spans_.Names()) {
      std::printf(" [%s]", name.c_str());
    }
    std::printf("\n");
  }
  engine_log_.reset();
  std::filesystem::remove_all(tmp_dir_, ec);
  if (!verdict_.ok()) {
    std::fprintf(stderr, "%" PRId64 " check failures; first: %s\n",
                 verdict_.failures, verdict_.first.c_str());
  }
  Print(verdict_.ok());
  return verdict_.ok() ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench/out";
  bool usage_error = argc % 2 != 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      usage_error = true;
    }
  }
  if (usage_error || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload == spec.name) {
      Run run(spec, seed, seconds, trace == 1, out_dir);
      return run.Execute();
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench
}  // namespace ssa

int main(int argc, char** argv) { return ssa::perfbench::Main(argc, argv); }
