// query_session: one client working on the paper_cold snapshot dir, one
// session at a time. A session opens the bundle and builds the tables
// (`cellspot query --snapshot-dir`) on the shared executor, then runs
// rounds of a fixed 7-plan mix on a 2-thread executor, rendering every
// result to CSV in memory.
//
// Why plans get two threads: a plan forks and joins the pool several
// times, and each join waits for the slowest worker, so at 4 threads one
// worker delayed by another tenant stalls the plan. At 1 thread one
// core's private cache holds less of the tables, so a tenant streaming
// through memory slows every plan. On a 4-vCPU VM, next to two
// busy-looping processes the 4-thread answer_p50_ms rose 47%; next to one
// process copying 256 MB buffers the 1-thread one rose 55%; the 2-thread
// one moved at most 10% under either.
//
// Untimed checks: every plan's CSV is byte-equal to its first output in
// the run; the three presets also match analysis::reports computed on
// the set-up job's experiment.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>

#include "cellspot/analysis/export.hpp"
#include "cellspot/analysis/reports.hpp"
#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/query/engine.hpp"
#include "cellspot/query/presets.hpp"
#include "cellspot/query/source.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/snapshot/stage_cache.hpp"
#include "cellspot/util/sink.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace cellspot;

namespace {

constexpr int kRoundsPerSession = 20;
constexpr std::size_t kMinPlans = 200;
constexpr unsigned kPlanThreads = 2;  // see the top of this file
constexpr const char* kPlanMsPrefix = "query.plan_ms.";

/// The run's answer metrics from its per-plan latencies (>= 40 of each
/// plan): the geometric mean over the plans of each plan's median
/// (answer_p50_ms) and of each plan's nearest-rank p95 (answer_p95_ms).
/// A quantile of the pooled mix would fall in one plan's distribution or
/// in a gap between two plans', and move with that plan alone: the
/// pooled p50 jumped across a gap from run to run, and the pooled p95,
/// set by the slowest plan's tail, spread 19% over ten runs on a quiet
/// host.
void AddAnswers(Samples& samples) {
  double log_p50 = 0.0;
  double log_p95 = 0.0;
  std::size_t plans = 0;
  for (const auto& [name, ms] : samples) {
    if (name.rfind(kPlanMsPrefix, 0) != 0) continue;
    log_p50 += std::log(Median(ms));
    log_p95 += std::log(Quantile(ms, 0.95));
    ++plans;
  }
  samples["answer_p50_ms"] = {std::exp(log_p50 / static_cast<double>(plans))};
  samples["answer_p95_ms"] = {std::exp(log_p95 / static_cast<double>(plans))};
}

struct PlanSpec {
  std::string name;
  std::function<query::Table(const query::TableSet&, exec::Executor&)> run;
  std::function<std::size_t(const query::TableSet&)> scanned;  // source rows
};

/// A plan in the CLI's flag syntax: --where (each), --group-by, --agg,
/// then --top N (order by the first aggregate, descending).
query::Plan TopPlan(const query::Table& table, const std::vector<std::string>& where,
                    const std::string& group_by, const std::string& aggs, std::size_t top) {
  query::Plan plan;
  for (const std::string& expr : where) plan.filters.push_back(query::ParseFilterExpr(expr, table));
  plan.group_by = query::SplitTopLevel(group_by, ',');
  for (const std::string& expr : query::SplitTopLevel(aggs, ',')) {
    plan.aggregates.push_back(query::ParseAggregateExpr(expr, table));
  }
  if (top != 0) {
    plan.order_by.push_back({plan.aggregates.front().OutputName(), true});
    plan.limit = top;
  }
  return plan;
}

PlanSpec Preset(query::Preset preset,
                std::function<std::size_t(const query::TableSet&)> scanned) {
  return {std::string(query::PresetName(preset)),
          [preset](const query::TableSet& t, exec::Executor& ex) {
            return query::RunPreset(preset, t, ex);
          },
          std::move(scanned)};
}

std::vector<PlanSpec> PlanMix() {
  const auto rows = [](const query::Table& t) { return t.row_count(); };
  return {
      Preset(query::Preset::kTable2,
             [=](const query::TableSet& t) { return rows(t.beacon) + rows(t.demand); }),
      Preset(query::Preset::kFig2Cdf, [=](const query::TableSet& t) { return rows(t.classified); }),
      Preset(query::Preset::kCountryShare,
             [=](const query::TableSet& t) { return rows(t.demand); }),
      {"kept_asn_top20",
       [](const query::TableSet& t, exec::Executor& ex) {
         return query::Engine(t.demand, ex).Run(
             TopPlan(t.demand, {"kept=1"}, "asn", "sum(cell_du)", 20));
       },
       [=](const query::TableSet& t) { return rows(t.demand); }},
      {"de_asn_top5",
       [](const query::TableSet& t, exec::Executor& ex) {
         return query::Engine(t.demand, ex).Run(
             TopPlan(t.demand, {"country=DE"}, "asn", "sum(du),count()", 5));
       },
       [=](const query::TableSet& t) { return rows(t.demand); }},
      {"beacon_country_q90",
       [](const query::TableSet& t, exec::Executor& ex) {
         return query::Engine(t.beacon, ex).Run(
             TopPlan(t.beacon, {}, "country", "quantile(ratio,0.9)", 0));
       },
       [=](const query::TableSet& t) { return rows(t.beacon); }},
      {"classified_ratio_gt09",
       [](const query::TableSet& t, exec::Executor& ex) {
         query::Plan plan;
         plan.filters.push_back(query::ParseFilterExpr("ratio>0.9", t.classified));
         plan.columns = {"block", "asn", "ratio"};
         plan.order_by = {query::ParseOrderByExpr("ratio:desc"),
                          query::ParseOrderByExpr("block")};
         plan.limit = 100;
         return query::Engine(t.classified, ex).Run(plan);
       },
       [=](const query::TableSet& t) { return rows(t.classified); }},
  };
}

std::string RenderCsv(const query::Table& table) {
  std::ostringstream out;
  const auto sink = util::MakeTableSink(util::TableFormat::kCsv, out);
  query::RenderTable(table, *sink);
  return out.str();
}

/// Reference outputs: the presets as analysis::reports computes them,
/// then every plan's first CSV.
struct References {
  analysis::DatasetSummary summary;
  std::map<std::string, std::string> csv;
};

References ReportReferences(const analysis::Experiment& exp) {
  References refs;
  refs.summary = analysis::SummarizeDatasets(exp);
  std::ostringstream fig2;
  analysis::WriteFig2Csv(exp, fig2);
  refs.csv["fig2_cdf"] = fig2.str();
  std::ostringstream country;
  analysis::WriteCountryCsv(exp, country);
  refs.csv["country_share"] = country.str();
  return refs;
}

bool Table2MatchesSummary(const query::Table& table, const analysis::DatasetSummary& s) {
  const query::Column* value = table.FindColumn("value");
  if (value == nullptr || value->f64.size() != 6) return false;
  return value->f64[0] == static_cast<double>(s.beacon_v4_blocks) &&
         value->f64[1] == static_cast<double>(s.beacon_v6_blocks) &&
         value->f64[2] == static_cast<double>(s.demand_v4_blocks) &&
         value->f64[3] == static_cast<double>(s.demand_v6_blocks) &&
         value->f64[4] == s.beacon_coverage_of_demand_v4 &&
         value->f64[5] == s.beacon_coverage_of_demand_weight;
}

class QueryClient {
 public:
  QueryClient(const Options& opts, exec::Executor& executor, References refs, Report& report)
      : opts_(opts), executor_(executor), refs_(std::move(refs)), report_(report) {}

  /// `cellspot query --snapshot-dir` through query::LoadBundleFromDir:
  /// one session, whose end-to-end samples go to `samples`.
  void Run(const fs::path& dir, Samples& samples) {
    const auto start = Clock::now();
    const query::SnapshotBundle bundle = query::LoadBundleFromDir(dir, {}, executor_);
    const query::TableSet tables = query::BuildTables(bundle, executor_);
    const double open_s = MsSince(start) / 1000.0;
    Rounds(tables, nullptr, samples);
    samples["run_s"].push_back(MsSince(start) / 1000.0);
    samples["open_s"].push_back(open_s);
    samples["ingest_items_per_s"].push_back(static_cast<double>(TableRows(tables)) / open_s);
    CountSession(TableRows(tables), true);
  }

  /// The same session split into each layer's public calls, as
  /// LoadBundleFromFiles makes them, one span per call; its layer
  /// samples go to `samples`.
  void RunTraced(const fs::path& dir, const simnet::WorldConfig& config, Tracer& tracer,
                 Samples& samples) {
    // Declared before the span: the CLI exits without freeing them, so
    // their destruction is not part of the session.
    query::SnapshotBundle bundle;
    query::TableSet tables;
    std::optional<Scope> session;
    session.emplace(tracer, "session");
    const int span = session->id();
    const snapshot::StageCache cache(dir);
    {
      const Scope load(tracer, "query.load_bundle");
      {
        const Scope span(tracer, "snapshot.load.world");
        bundle.world = snapshot::DecodeWorld(snapshot::ReadSnapshotFile(cache.WorldPath(config)));
      }
      {
        const Scope span(tracer, "snapshot.load.datasets");
        auto datasets =
            snapshot::DecodeDatasets(snapshot::ReadSnapshotFile(cache.DatasetsPath(config)));
        bundle.beacons = std::move(datasets.first);
        bundle.demand = std::move(datasets.second);
      }
      {
        const Scope span(tracer, "snapshot.load.classified");
        bundle.classified = snapshot::DecodeClassified(
            snapshot::ReadSnapshotFile(cache.ClassifiedPath(config, {})));
      }
      {
        const Scope span(tracer, "asdb.rib_compile");
        (void)bundle.world.rib().Flat();
      }
      {
        const Scope span(tracer, "core.aggregate");
        bundle.candidates = core::AggregateCandidateAsesSharded(
            bundle.world.rib(), bundle.classified, bundle.beacons, bundle.demand, executor_, {});
      }
      {
        const Scope span(tracer, "core.filter");
        bundle.filtered = core::ApplyAsFilters(bundle.candidates, bundle.world.as_db(), {});
      }
      const int id = load.id();
      for (const char* artifact : {"world", "datasets", "classified"}) {
        samples[std::string("snapshot.load_ms.") + artifact].push_back(
            tracer.ChildMs(id, std::string("snapshot.load.") + artifact));
      }
      samples["asdb.rib_compile_ms"].push_back(tracer.ChildMs(id, "asdb.rib_compile"));
      samples["core.aggregate_ms"].push_back(tracer.ChildMs(id, "core.aggregate"));
      samples["core.filter_ms"].push_back(tracer.ChildMs(id, "core.filter"));
      samples["netaddr.lpm_segments"].push_back(
          static_cast<double>(bundle.world.rib().Flat().segment_count()));
    }
    {
      const Scope build(tracer, "query.build_tables");
      tables = query::BuildTables(bundle, executor_);
    }
    samples["query.load_bundle_ms"].push_back(tracer.ChildMs(span, "query.load_bundle"));
    samples["query.build_tables_ms"].push_back(tracer.ChildMs(span, "query.build_tables"));
    Rounds(tables, &tracer, samples);
    session.reset();
    samples["run_s"].push_back(tracer.spans()[static_cast<std::size_t>(span)].duration_ms() /
                               1000.0);
    samples["query.table_rows"].push_back(static_cast<double>(TableRows(tables)));
    CountSession(TableRows(tables), AddCoverage(tracer, span, samples, report_));
  }

  [[nodiscard]] std::size_t plans() const noexcept { return plans_; }
  [[nodiscard]] std::size_t mix_size() const noexcept { return mix_.size(); }
  [[nodiscard]] double rows_scanned() const noexcept { return scanned_; }
  [[nodiscard]] double rows_returned() const noexcept { return returned_; }
  void ResetRowCounts() { scanned_ = returned_ = 0.0; }

 private:
  static std::uint64_t TableRows(const query::TableSet& t) {
    return t.beacon.row_count() + t.demand.row_count() + t.classified.row_count();
  }

  void CountSession(std::uint64_t rows, bool covered) {
    report_.CountOps(1, report_.Expect(rows > 0, "session opened empty tables") && covered);
  }

  /// Runs the session's rounds; each plan's latencies go to
  /// samples["query.plan_ms.<plan>"].
  void Rounds(const query::TableSet& tables, Tracer* tracer, Samples& samples) {
    for (int round = 0; round < kRoundsPerSession; ++round) {
      for (const PlanSpec& plan : mix_) {
        const auto start = Clock::now();
        std::optional<Scope> span;
        if (tracer != nullptr) span.emplace(*tracer, "query.plan." + plan.name);
        const query::Table result = plan.run(tables, plan_executor_);
        std::string csv = RenderCsv(result);
        span.reset();
        samples[kPlanMsPrefix + plan.name].push_back(MsSince(start));
        scanned_ += static_cast<double>(plan.scanned(tables));
        returned_ += static_cast<double>(result.row_count());
        Check(plan.name, result, std::move(csv));
      }
    }
  }

  void Check(const std::string& name, const query::Table& result, std::string csv) {
    ++plans_;
    bool ok = true;
    if (name == "table2") {
      ok = report_.Expect(Table2MatchesSummary(result, refs_.summary),
                          "table2 preset differs from analysis::SummarizeDatasets");
    }
    const auto ref = refs_.csv.try_emplace(name, csv).first;
    if (opts_.inject_mismatch && plans_ == 1) csv += "#";
    ok = report_.Expect(ref->second == csv,
                        "plan " + name + " output differs from its reference") && ok;
    report_.CountOps(1, ok);
  }

  const Options& opts_;
  exec::Executor& executor_;
  exec::Executor plan_executor_{kPlanThreads};
  References refs_;
  Report& report_;
  const std::vector<PlanSpec> mix_ = PlanMix();
  std::size_t plans_ = 0;
  double scanned_ = 0.0;
  double returned_ = 0.0;
};

}  // namespace

Report RunQueryWorkload(const Options& opts) {
  Report report;
  exec::Executor& executor = exec::Executor::Shared();
  const simnet::WorldConfig config = opts.World(kPaperScale);
  const WorkDir work(opts);
  const fs::path snaps = work.path() / "snapshots";
  const fs::path out = work.path() / "figures";

  // Set-up: a paper_cold job writes the snapshot dir the client reads;
  // the first job's experiment gives the report references.
  std::optional<References> refs;
  report.metrics["setup_s"] = TimedSetup([&](int) {
    FreshDir(snaps);
    FreshDir(out);
    analysis::Experiment exp;
    (void)RunFigures(config, snaps, out, executor, exp);
    if (!refs) refs = ReportReferences(exp);
  });

  QueryClient client(opts, executor, std::move(*refs), report);
  ResetPeakRss();
  Samples untraced;
  const double untraced_ms = opts.seconds * 1000.0 * (opts.trace ? 0.5 : 1.0);
  const std::size_t min_plans = opts.trace ? 1 : kMinPlans;
  for (const auto start = Clock::now();
       client.plans() < min_plans || MsSince(start) < untraced_ms;) {
    client.Run(snaps, untraced);
  }
  if (!opts.trace) {
    AddAnswers(untraced);
    AddEndToEnd(untraced, report);
    std::printf("samples: %zu sessions of %zu plans each; answer_* over %zu plans of %zu runs "
                "each\n",
                untraced["run_s"].size(), client.plans() / untraced["run_s"].size(),
                client.mix_size(), client.plans() / client.mix_size());
    return report;
  }

  Tracer tracer;
  Samples layers;
  client.ResetRowCounts();
  int traced = 0;
  for (const auto start = Clock::now(); traced < 1 || MsSince(start) < untraced_ms; ++traced) {
    (void)Counted(executor.thread_count(), layers,
                  [&] { client.RunTraced(snaps, config, tracer, layers); });
  }
  // This path reads the snapshot files directly, past the stage cache's
  // byte counters: count the files' bytes instead.
  const snapshot::StageCache cache(snaps);
  const double bytes = static_cast<double>(FileBytes(cache.WorldPath(config)) +
                                           FileBytes(cache.DatasetsPath(config)) +
                                           FileBytes(cache.ClassifiedPath(config, {})));
  layers["snapshot.bytes_read"] = {bytes};
  FinishTrace(tracer, opts, untraced, std::move(layers), report);
  const double read_ms = report.metrics["snapshot.load_ms.world"] +
                         report.metrics["snapshot.load_ms.datasets"] +
                         report.metrics["snapshot.load_ms.classified"];
  report.metrics["snapshot.read_mb_per_s"] = bytes / 1e6 / (read_ms / 1000.0);
  report.metrics["query.rows_scanned_per_row_returned"] =
      client.rows_scanned() / std::max(1.0, client.rows_returned());
  std::printf("samples: %zu untraced sessions, %d traced sessions\n", untraced["run_s"].size(),
              traced);
  return report;
}

}  // namespace perfbench
