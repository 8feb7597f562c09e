//===- perfbench/trace.cpp - In-process half of the repository benchmark ---===//
//
// run.py drives the shipped tools (ogate-sim --sweep, ogate-serve) for the
// end-to-end numbers; this helper does the work that needs the library's
// public API directly. Three modes:
//
//   perfbench-trace setup --workloads=a,b --scale=S --reps=N
//     Builds (or lifts) and decodes every workload N times, untraced, and
//     prints {"setup_s": [...]}: the batch workloads' set-up time.
//
//   perfbench-trace check --workloads=a,b --scale=S --doc=PATH
//     Semantics check: each standard config's transformed binary must
//     print its workload's baseline output stream and execute exactly the
//     dyn-insts the sweep document at PATH reports for that cell. Prints
//     {"checked": N, "failed": M, "errors": [{"cell", "why"}...]} with why
//     one of no-halt, output, missing, dyn-insts.
//
//   perfbench-trace serve --requests=FILE --out=DIR [--clients=N]
//                   [--jobs=N] [--cache-dir=DIR] [--measure-from=K]
//                   [--trace=PATH] [--expect-doc=PATH]
//     Serves the ogate-serve wire lines of FILE through one service: lines
//     [0, K) one at a time, the rest from N client threads. Writes each
//     reply (the compact report document, or the error envelope) to
//     DIR/responses.jsonl and per-request serve times to DIR/latency.json.
//     Without --trace the shipped SweepService serves. With it, a replica
//     of SweepService::serve and runPipeline made of the same public calls
//     serves instead, with a span around each call; per-event layers that
//     cannot be wrapped cheaply are then priced by difference runs over
//     the same streams, the Chrome trace goes to PATH, and the per-layer
//     metrics print as JSON on stdout. --expect-doc compares the first
//     reply, pretty-printed, byte for byte against a batch document.
//
//===----------------------------------------------------------------------===//

#include "opt/TransformPipeline.h"
#include "pipeline/Pipeline.h"
#include "power/ActivityCounts.h"
#include "report/ReportSchema.h"
#include "service/SweepService.h"
#include "sim/Superblock.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace og;

namespace {

// --- Spans ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

double nowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - Epoch)
      .count();
}

struct SpanRec {
  const char *Name; ///< "layer.call"
  uint64_t Id, Parent;
  uint32_t Tid;
  double Start, End; ///< ms since Epoch
};

bool Tracing = false;
std::mutex SpansM;
std::vector<SpanRec> Spans;
std::atomic<uint64_t> NextSpanId{1};
std::atomic<uint32_t> NextTid{1};
thread_local uint64_t CurSpan = 0;
thread_local uint32_t ThreadId = 0;

/// A scoped span; records nothing unless Tracing is on.
class Span {
public:
  explicit Span(const char *Name)
      : Name(Name), Id(Tracing ? NextSpanId++ : 0), Parent(CurSpan),
        Start(nowMs()) {
    if (Tracing)
      CurSpan = Id;
  }
  ~Span() {
    const double End = nowMs();
    if (!Tracing)
      return;
    CurSpan = Parent;
    if (!ThreadId)
      ThreadId = NextTid++;
    std::lock_guard<std::mutex> Lock(SpansM);
    Spans.push_back({Name, Id, Parent, ThreadId, Start, End});
  }
  uint64_t id() const { return Id; }
  double ms() const { return nowMs() - Start; }

private:
  const char *Name;
  uint64_t Id, Parent;
  double Start;
};

/// Makes \p Parent the current span of this thread for the scope: how a
/// job run on a driver worker thread names the span that dispatched it.
class AdoptParent {
public:
  explicit AdoptParent(uint64_t Parent) : Saved(CurSpan) { CurSpan = Parent; }
  ~AdoptParent() { CurSpan = Saved; }

private:
  uint64_t Saved;
};

/// Forwards the trace to the detailed core, timing each OooCore::onBatch.
class TimedSink final : public TraceSink {
public:
  explicit TimedSink(TraceSink &Inner) : Inner(Inner) {}
  void onBatch(const DynInst *Batch, size_t N) override {
    Span S("uarch.onBatch");
    const double T0 = nowMs();
    Inner.onBatch(Batch, N);
    Ms += nowMs() - T0;
  }
  double Ms = 0.0;

private:
  TraceSink &Inner;
};

/// The no-op ActivitySink of the power difference run (it only counts).
class CountingSink final : public ActivitySink {
public:
  void access(Structure) override { ++Events; }
  void dataAccess(Structure, int64_t, Width) override { ++Events; }
  void missPenalty(Structure) override { ++Events; }
  uint64_t Events = 0;
};

// --- What the traced run records besides spans ---------------------------

using ProgramPtr = std::shared_ptr<const Program>;

/// One computed cell's binary and ref context (distinct binaries and the
/// exact-cell power difference run).
struct CellRun {
  ProgramPtr Prog;
  RunOptions Ref;
  UarchConfig Uarch;
  GatingScheme Scheme;
  EnergyCoefficients Coeffs;
  bool Exact = false;
  double BatchMs = 0.0; ///< OooCore+EnergyModel onBatch time (exact cells)
  uint64_t Insts = 0;
};

/// One prepareSampled call (profile/plan difference run).
struct PrepRun {
  ProgramPtr Prog;
  RunOptions Ref;
  SampleSpec Spec;
};

/// One runSampledStream call (functional fast-forward difference run).
struct StreamRun {
  ProgramPtr Prog;
  RunOptions Ref;
  std::vector<std::vector<uint64_t>> Profile;
};

struct Probe {
  std::mutex M;
  std::vector<CellRun> Cells;
  std::vector<PrepRun> Preps;
  std::vector<StreamRun> Streams;
  uint64_t StreamInsts = 0, SbInsts = 0, SampledDetailed = 0, Replayed = 0;
  uint64_t ArchBytes = 0, PlanHits = 0, PlanMisses = 0;
  uint64_t AnalysisHits = 0, AnalysisMisses = 0;
  uint64_t Hits = 0, Misses = 0, Dedups = 0, Rejected = 0;
  double QueueWaitMs = 0.0, BusyMs = 0.0, SlotMs = 0.0;
  uint64_t DocBytes = 0, Docs = 0;

  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    Cells.clear();
    Preps.clear();
    Streams.clear();
    StreamInsts = SbInsts = SampledDetailed = Replayed = 0;
    ArchBytes = PlanHits = PlanMisses = AnalysisHits = AnalysisMisses = 0;
    Hits = Misses = Dedups = Rejected = 0;
    QueueWaitMs = BusyMs = SlotMs = 0.0;
    DocBytes = Docs = 0;
  }
};

Probe Rec;

// --- The traced replica of runPipeline -----------------------------------

std::unique_ptr<DecodedProgram> decode(const Program &P) {
  Span S("sim.decode");
  return std::make_unique<DecodedProgram>(P);
}

TransformPass spanned(const char *Name, TransformPass Pass) {
  return [Name, Pass](Program &P, AnalysisManager &AM, TransformContext &Ctx) {
    Span S(Name);
    Pass(P, AM, Ctx);
  };
}

/// The software-transform half of runPipeline: the mode's stock pass list,
/// rebuilt from makeNarrowPass/makeSpecializePass with a span per pass.
void transform(const Workload &W, const PipelineConfig &Config,
               PipelineResult &Result) {
  Span T("opt.transform");
  Program &P = Result.Transformed;
  AnalysisManager AM(P, &Result.OptStats);
  TransformContext Ctx;
  Ctx.Narrow = Config.Narrow;
  switch (Config.Sw) {
  case SoftwareMode::None:
    break;
  case SoftwareMode::ConventionalVrp:
    Ctx.Narrow.UseUsefulWidths = false;
    break;
  case SoftwareMode::Vrp:
    Ctx.Narrow.UseUsefulWidths = true;
    break;
  case SoftwareMode::Vrs:
    Ctx.Narrow.UseUsefulWidths = true;
    Ctx.Vrs.Energy.TestCostNJ = Config.VrsTestCostNJ;
    Ctx.Train = W.Train;
    break;
  }
  const TransformPipeline Stock = makeSoftwareModePipeline(Config.Sw);
  TransformPipeline Traced;
  for (size_t I = 0; I < Stock.size(); ++I) {
    const std::string &Name = Stock.passName(I);
    if (Name == "narrow")
      Traced.add(Name, spanned("vrp.narrow", makeNarrowPass()));
    else if (Name == "specialize")
      Traced.add(Name, spanned("vrs.specialize", makeSpecializePass()));
    else
      throw std::runtime_error("perfbench: unknown stock pass '" + Name + "'");
  }
  Traced.run(P, AM, Ctx);
  Result.Narrowing = Ctx.Narrowing;
  Result.Vrs = Ctx.VrsResult;
}

/// SamplePlanCache::getOrCompute* under a span: the span's self time is
/// the wait (call time minus the caller's own compute).
template <class PtrT, class ComputeFn>
PtrT cached(PtrT (SamplePlanCache::*Get)(const std::string &,
                                         const std::function<PtrT()> &),
            SamplePlanCache &Cache, const std::string &Key,
            ComputeFn Compute) {
  Span S("sample.plancache");
  bool Ran = false;
  PtrT Out = (Cache.*Get)(Key, [&] {
    Ran = true;
    return Compute();
  });
  std::lock_guard<std::mutex> Lock(Rec.M);
  ++(Ran ? Rec.PlanMisses : Rec.PlanHits);
  return Out;
}

PipelineResult tracedPipeline(const Workload &W, const PipelineConfig &Config,
                              const DecodedProgram *BaseDecode,
                              SamplePlanCache &PlanCache) {
  Span CellSpan("pipeline.cell");
  PipelineResult Result;
  Result.Transformed = W.Prog;
  Program &P = Result.Transformed;
  transform(W, Config, Result);

  const bool ShareDecode = Config.Sw == SoftwareMode::None && BaseDecode;
  std::unique_ptr<DecodedProgram> Owned;
  if (!ShareDecode)
    Owned = decode(P);
  const DecodedProgram &Decoded = ShareDecode ? *BaseDecode : *Owned;
  CellRun Cell{std::make_shared<const Program>(P), W.Ref, Config.Uarch,
               Config.Scheme, Config.Coeffs};

  if (Config.Sample.enabled()) {
    std::unique_ptr<DecodedProgram> CaptureOwned;
    const DecodedProgram *CaptureDP = &Decoded;
    if (&Decoded.program() != &W.Prog &&
        sampleWarmKey(P, W.Ref, Config.Uarch, Config.Sample) ==
            sampleWarmKey(W.Prog, W.Ref, Config.Uarch, Config.Sample)) {
      if (BaseDecode) {
        CaptureDP = BaseDecode;
      } else {
        CaptureOwned = decode(W.Prog);
        CaptureDP = CaptureOwned.get();
      }
    }
    auto Prepare = [&] {
      std::shared_ptr<const SampleArtifacts> Art;
      {
        Span S("sample.prepare");
        Art = std::make_shared<const SampleArtifacts>(
            prepareSampled(*CaptureDP, W.Ref, Config.Uarch, Config.Sample));
      }
      std::lock_guard<std::mutex> Lock(Rec.M);
      Rec.Preps.push_back({std::make_shared<const Program>(CaptureDP->program()),
                           W.Ref, Config.Sample});
      Rec.ArchBytes += Art->ArchBytes;
      return Art;
    };
    std::shared_ptr<const SampleArtifacts> Art =
        cached(&SamplePlanCache::getOrCompute, PlanCache,
               sampleWarmKey(P, W.Ref, Config.Uarch, Config.Sample), Prepare);
    auto RunStream = [&] {
      std::unique_ptr<SuperblockPlan> Sb;
      {
        Span S("sim.superblocks");
        Sb = std::make_unique<SuperblockPlan>(Decoded, Art->BlockProfile);
      }
      RunOptions Ref = W.Ref;
      Ref.Superblocks = Sb.get();
      SampleRunPolicy Policy;
      Policy.WindowJobs = Config.SampleWindowJobs;
      std::shared_ptr<const SampleStreamEstimate> Est;
      {
        Span S("sample.replay");
        Est = std::make_shared<const SampleStreamEstimate>(runSampledStream(
            Decoded, Ref, Config.Uarch, *Art, Config.Sample, Policy));
      }
      std::lock_guard<std::mutex> Lock(Rec.M);
      Rec.Streams.push_back({Cell.Prog, W.Ref, Art->BlockProfile});
      Rec.StreamInsts += Est->Run.Stats.DynInsts;
      Rec.SbInsts += Est->Run.Engine.SuperblockInsts;
      Rec.SampledDetailed += Est->DetailedInsts;
      Rec.Replayed += Est->Replayed ? 1 : 0;
      return Est;
    };
    std::shared_ptr<const SampleStreamEstimate> Stream =
        cached(&SamplePlanCache::getOrComputeEstimate, PlanCache,
               sampleStreamKey(P, W.Ref, Config.Uarch, Config.Sample),
               RunStream);
    SampleEstimate Est;
    {
      Span S("power.derive");
      Est = deriveSampleEstimate(*Stream, Config.Scheme, Config.Coeffs);
    }
    if (Est.Run.Status != RunStatus::Halted)
      throw std::runtime_error("pipeline: sampled ref run did not halt");
    Result.RefStats = Est.Run.Stats;
    Result.Output = Est.Run.Output;
    Result.Report = Est.Report;
    Result.Sample.Used = true;
    Result.Sample.IntervalLen = Est.Plan.IntervalLen;
    Result.Sample.Intervals = Est.Plan.numIntervals();
    Result.Sample.K = Est.Plan.K;
    Result.Sample.DetailedInsts = Est.DetailedInsts;
    Result.Sample.Weights = Est.Plan.Weights;
    Result.Sample.Reps = Est.Plan.Reps;
    Result.Sample.EstError = Est.Plan.Dispersion;
    Result.Engine = Est.Run.Engine;
  } else {
    EnergyModel EM(Config.Scheme, Config.Coeffs);
    OooCore Core(Config.Uarch, &EM);
    TimedSink Timed(Core);
    RunOptions RefOpts = W.Ref;
    RefOpts.Sink = &Timed;
    RunResult Run;
    {
      Span S("sim.run");
      Run = runProgram(Decoded, RefOpts);
    }
    if (Run.Status != RunStatus::Halted)
      throw std::runtime_error("pipeline: ref run did not halt");
    Result.RefStats = Run.Stats;
    Result.Output = Run.Output;
    {
      Span S("power.derive");
      Result.Report = makeReport(EM, Core.finish());
    }
    Result.Engine = Run.Engine;
    Cell.Exact = true;
    Cell.BatchMs = Timed.Ms;
    Cell.Insts = Run.Stats.DynInsts;
  }

  if (Config.Sw == SoftwareMode::Vrs && Result.RefStats.DynInsts > 0) {
    uint64_t Spec = 0, GuardDyn = 0;
    for (const auto &[F, BB] : Result.Vrs.CloneBlocks)
      Spec += Result.RefStats.BlockCounts[F][BB] *
              P.Funcs[F].Blocks[BB].Insts.size();
    for (const auto &[F, BB] : Result.Vrs.GuardBlocks)
      GuardDyn += Result.RefStats.BlockCounts[F][BB] *
                  P.Funcs[F].Blocks[BB].Insts.size();
    Result.DynSpecializedFrac =
        static_cast<double>(Spec) / Result.RefStats.DynInsts;
    Result.DynGuardFrac =
        static_cast<double>(GuardDyn) / Result.RefStats.DynInsts;
  }

  std::lock_guard<std::mutex> Lock(Rec.M);
  Rec.Cells.push_back(std::move(Cell));
  Rec.AnalysisHits += Result.OptStats.get("analysis-hits");
  Rec.AnalysisMisses += Result.OptStats.get("analysis-misses");
  return Result;
}

// --- The traced replica of SweepService ----------------------------------

struct TracedWorkload {
  Workload W;
  std::unique_ptr<DecodedProgram> Decoded;
};

/// SweepService::serve rebuilt from the same public calls, with spans.
class TracedService {
public:
  explicit TracedService(ServiceOptions O)
      : Opts(std::move(O)), Cache(Opts.CacheDir, Opts.MaxCacheBytes) {}

  ServedSweep serve(const SweepRequest &R);
  uint64_t cacheBytes() const { return Cache.usage().Bytes; }
  uint64_t stores() const { return Cache.counters().Stores; }

private:
  struct ServedCell {
    std::string Error;
    ResultAggregator::Cell Cell;
  };
  using ServedCellPtr = std::shared_ptr<const ServedCell>;
  using WorkloadPtr = std::shared_ptr<const TracedWorkload>;

  WorkloadPtr getWorkload(const std::string &Name, double Scale);

  ServiceOptions Opts;
  ResultCache Cache;
  SamplePlanCache PlanCache;
  std::mutex WorkloadsM;
  std::map<std::pair<std::string, double>, std::shared_future<WorkloadPtr>>
      WorkloadFutures;
  std::mutex CellsM;
  std::map<std::string, std::shared_future<ServedCellPtr>> CellFutures;
};

TracedService::WorkloadPtr TracedService::getWorkload(const std::string &Name,
                                                      double Scale) {
  std::shared_future<WorkloadPtr> Fut;
  std::promise<WorkloadPtr> Owner;
  bool IsOwner = false;
  {
    std::lock_guard<std::mutex> Lock(WorkloadsM);
    auto It = WorkloadFutures.find({Name, Scale});
    if (It == WorkloadFutures.end()) {
      IsOwner = true;
      Fut = Owner.get_future().share();
      WorkloadFutures.emplace(std::make_pair(Name, Scale), Fut);
    } else {
      Fut = It->second;
    }
  }
  if (IsOwner) {
    try {
      auto TW = std::make_shared<TracedWorkload>();
      if (Name.rfind("elf:", 0) == 0) {
        Span S("frontend.lift");
        TW->W = makeElfWorkload(Name.substr(4), Scale);
      } else {
        Span S("workloads.build");
        TW->W = makeWorkload(Name, Scale);
      }
      TW->Decoded = decode(TW->W.Prog);
      Owner.set_value(std::move(TW));
    } catch (...) {
      Owner.set_exception(std::current_exception());
      std::lock_guard<std::mutex> Lock(WorkloadsM);
      WorkloadFutures.erase({Name, Scale});
    }
  }
  return Fut.get();
}

ServedSweep TracedService::serve(const SweepRequest &R) {
  ServedSweep Out;
  Expected<std::vector<ExperimentSpec>> SpecsOr = R.buildSpecs();
  if (!SpecsOr) {
    Out.Error = SpecsOr.error();
    return Out;
  }
  const std::vector<ExperimentSpec> &Specs = *SpecsOr;
  const size_t N = Specs.size();

  std::vector<CellKey> Keys;
  Keys.reserve(N);
  try {
    for (const ExperimentSpec &S : Specs) {
      WorkloadPtr TW = getWorkload(S.Workload, S.Scale);
      Span K("service.key");
      Keys.push_back(makeCellKey(S, TW->W));
    }
  } catch (const std::exception &E) {
    Out.Error = std::string("workload build failed: ") + E.what();
    return Out;
  }

  std::vector<std::shared_future<ServedCellPtr>> Futures(N);
  std::map<size_t, std::promise<ServedCellPtr>> Owned;
  {
    std::lock_guard<std::mutex> Lock(CellsM);
    for (size_t I = 0; I < N; ++I) {
      const std::string Addr = Keys[I].address();
      auto It = CellFutures.find(Addr);
      if (It != CellFutures.end()) {
        Futures[I] = It->second;
        const bool Ready = Futures[I].wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready;
        Ready ? ++Out.Hits : ++Out.InflightDedups;
        continue;
      }
      std::promise<ServedCellPtr> P;
      Futures[I] = P.get_future().share();
      CellFutures.emplace(Addr, Futures[I]);
      Owned.emplace(I, std::move(P));
    }
  }

  std::vector<size_t> ToCompute;
  for (auto It = Owned.begin(); It != Owned.end();) {
    std::optional<ResultAggregator::Cell> Cell;
    {
      Span S("service.lookup");
      Cell = Cache.lookup(Keys[It->first]);
    }
    if (Cell) {
      ++Out.Hits;
      It->second.set_value(std::make_shared<const ServedCell>(
          ServedCell{"", std::move(*Cell)}));
      It = Owned.erase(It);
    } else {
      ++Out.Misses;
      ToCompute.push_back(It->first);
      ++It;
    }
  }

  if (!ToCompute.empty()) {
    std::vector<ExperimentSpec> Sub;
    Sub.reserve(ToCompute.size());
    for (size_t I : ToCompute)
      Sub.push_back(Specs[I]);

    Span Sweep("driver.sweep");
    const uint64_t SweepId = Sweep.id();
    std::mutex JobsM;
    double JobMs = 0.0;
    std::vector<char> Fulfilled(N, 0);
    SweepOptions SO;
    SO.Jobs = Opts.Jobs;
    SO.KeepGoing = Opts.KeepGoing;
    SO.Job = [&](const ExperimentSpec &Spec, Rng &) {
      AdoptParent Adopt(SweepId);
      const double T0 = nowMs();
      WorkloadPtr TW = getWorkload(Spec.Workload, Spec.Scale);
      PipelineConfig Config = Spec.Config;
      Config.SampleWindowJobs = Opts.SampleWindowJobs;
      PipelineResult Res =
          tracedPipeline(TW->W, Config, TW->Decoded.get(), PlanCache);
      std::lock_guard<std::mutex> Lock(JobsM);
      JobMs += nowMs() - T0;
      return Res;
    };
    SO.Consume = [&](size_t SubI, const ExperimentSpec &Spec,
                     PipelineResult &Res) {
      AdoptParent Adopt(SweepId);
      const size_t I = ToCompute[SubI];
      ResultAggregator::Cell Cell;
      {
        Span S("driver.reduce");
        Cell = ResultAggregator::makeCell(Spec, Res);
      }
      {
        Span S("service.store");
        Cache.store(Keys[I], Cell);
      }
      Owned.at(I).set_value(std::make_shared<const ServedCell>(
          ServedCell{"", std::move(Cell)}));
      Fulfilled[I] = 1;
    };
    SweepResult SR = runSweep(Sub, SO);
    {
      const double Workers = static_cast<double>(
          std::min<size_t>(std::max(1u, Opts.Jobs), Sub.size()));
      const double Slot = Workers * Sweep.ms();
      std::lock_guard<std::mutex> Lock(Rec.M);
      Rec.SlotMs += Slot;
      Rec.BusyMs += JobMs;
      Rec.QueueWaitMs += std::max(0.0, Slot - JobMs);
    }

    for (size_t SubI = 0; SubI < ToCompute.size(); ++SubI) {
      const size_t I = ToCompute[SubI];
      if (Fulfilled[I])
        continue;
      {
        std::lock_guard<std::mutex> Lock(CellsM);
        CellFutures.erase(Keys[I].address());
      }
      const JobOutcome &O = SR.Outcomes[SubI];
      const std::string Err =
          !O.Error.empty()
              ? O.Error
              : "spec '" + Sub[SubI].name() + "': cancelled before it ran";
      Owned.at(I).set_value(
          std::make_shared<const ServedCell>(ServedCell{Err, {}}));
    }
  }

  std::vector<ServedCellPtr> Cells(N);
  for (size_t I = 0; I < N; ++I) {
    Cells[I] = Futures[I].get();
    if (!Cells[I]->Error.empty() && Out.Error.empty())
      Out.Error = Cells[I]->Error;
  }
  if (!Out.Error.empty())
    return Out;
  for (size_t I = 0; I < N; ++I)
    Out.Aggregate.add(Cells[I]->Cell);
  if (const std::string Dup = Out.Aggregate.duplicateKey(); !Dup.empty()) {
    Out.Error =
        "sweep produced duplicate cell '" + Dup + "' — spec construction bug";
    return Out;
  }
  {
    Span S("report.render");
    Out.Document = sweepToJson(Out.Aggregate, R.SweepKind, R.Scale,
                               R.Report.OptStats,
                               R.Sample.enabled() ? &R.Sample : nullptr,
                               R.Report.EngineStats);
  }
  Out.Ok = true;
  return Out;
}

// --- Request handling (mirrors ogate-serve's sweep method) ---------------

struct Reply {
  std::string Line; ///< compact report document, or the error envelope
  bool Ok = false;
  double Ms = 0.0;
};

std::string errorLine(const std::string &What) {
  JsonValue V = JsonValue::object();
  V.set("ok", JsonValue::boolean(false));
  V.set("error", JsonValue::str(What));
  return V.toCompactString();
}

using ServeFn = std::function<ServedSweep(const SweepRequest &)>;

Reply handle(const std::string &Line, const ServeFn &Serve) {
  Reply Out;
  const double T0 = nowMs();
  Span Root("service.request");
  Expected<SweepRequest> R = makeError<SweepRequest>("");
  {
    Span S("service.parse");
    Expected<JsonValue> Msg = parseJson(Line);
    const JsonValue *Method = Msg ? Msg->get("method") : nullptr;
    const JsonValue *Req = Msg ? Msg->get("request") : nullptr;
    if (!Msg)
      R = makeError<SweepRequest>("request is not valid JSON: " + Msg.error());
    else if (!Method || !Method->isString() || Method->asString() != "sweep")
      R = makeError<SweepRequest>("unsupported method");
    else if (!Req)
      R = makeError<SweepRequest>("sweep request: missing \"request\"");
    else
      R = SweepRequest::fromJson(*Req);
    if (R) {
      R->Report.JsonRequested = true;
      if (const std::string Bad = validateReportOptions(
              R->Report, /*SweepMode=*/true, R->Sample.enabled());
          !Bad.empty())
        R = makeError<SweepRequest>(Bad);
    }
  }
  if (!R) {
    Out.Line = errorLine(R.error());
  } else {
    ServedSweep Served = Serve(*R);
    if (!Served.Ok) {
      Out.Line = errorLine(Served.Error);
    } else {
      Span S("report.serialize");
      Out.Line = Served.Document.toCompactString();
      Out.Ok = true;
    }
    std::lock_guard<std::mutex> Lock(Rec.M);
    Rec.Hits += Served.Hits;
    Rec.Misses += Served.Misses;
    Rec.Dedups += Served.InflightDedups;
    if (Served.Ok) {
      Rec.DocBytes += Out.Line.size();
      ++Rec.Docs;
    }
  }
  if (!Out.Ok) {
    std::lock_guard<std::mutex> Lock(Rec.M);
    ++Rec.Rejected;
  }
  Out.Ms = nowMs() - T0;
  return Out;
}

/// Serves Lines[0, From) one by one, then the rest from \p Clients
/// threads. Returns the wall time of the concurrent phase.
double serveAll(const std::vector<std::string> &Lines, size_t From,
                unsigned Clients, const ServeFn &Serve,
                std::vector<Reply> &Replies, const std::function<void()> &AfterWarm) {
  Replies.assign(Lines.size(), Reply());
  for (size_t I = 0; I < From && I < Lines.size(); ++I)
    Replies[I] = handle(Lines[I], Serve);
  AfterWarm();
  std::atomic<size_t> Next{From};
  const double T0 = nowMs();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < std::max(1u, Clients); ++C)
    Threads.emplace_back([&] {
      for (size_t I; (I = Next++) < Lines.size();)
        Replies[I] = handle(Lines[I], Serve);
    });
  for (std::thread &T : Threads)
    T.join();
  return nowMs() - T0;
}

// --- Self times, difference runs, metrics --------------------------------

std::string layerOf(const char *Name) {
  const std::string S(Name);
  return S.substr(0, S.find('.'));
}

double unionLength(std::vector<std::pair<double, double>> Iv) {
  std::sort(Iv.begin(), Iv.end());
  double Total = 0.0, Lo = 0.0, Hi = -1.0;
  for (const auto &[A, B] : Iv) {
    if (A > Hi) {
      if (Hi > Lo)
        Total += Hi - Lo;
      Lo = A;
      Hi = B;
    } else {
      Hi = std::max(Hi, B);
    }
  }
  if (Hi > Lo)
    Total += Hi - Lo;
  return Total;
}

struct Priced {
  double PowerMs = 0.0;
  uint64_t Events = 0;
  double ProfileMs = 0.0, PlanMs = 0.0;
  double StreamFunctionalMs = 0.0;
};

/// Re-runs each recorded stream with one layer swapped out or isolated.
Priced priceByDifference() {
  Priced Out;
  // Power: time both sinks back to back on the same stream (alternating
  // which goes first) and charge the energy share of that pair to the
  // cell's traced onBatch time.
  bool EnergyFirst = true;
  for (const CellRun &C : Rec.Cells) {
    if (!C.Exact)
      continue;
    DecodedProgram DP(*C.Prog);
    auto BatchMs = [&](ActivitySink &Sink) {
      OooCore Core(C.Uarch, &Sink);
      TimedSink Timed(Core);
      RunOptions Ref = C.Ref;
      Ref.Sink = &Timed;
      runProgram(DP, Ref);
      return Timed.Ms;
    };
    EnergyModel EM(C.Scheme, C.Coeffs);
    CountingSink Count;
    double WithEnergy, Without;
    if (EnergyFirst) {
      WithEnergy = BatchMs(EM);
      Without = BatchMs(Count);
    } else {
      Without = BatchMs(Count);
      WithEnergy = BatchMs(EM);
    }
    EnergyFirst = !EnergyFirst;
    Out.PowerMs += C.BatchMs * std::max(0.0, 1.0 - Without / WithEnergy);
    Out.Events += Count.Events;
  }
  for (const PrepRun &P : Rec.Preps) {
    DecodedProgram DP(*P.Prog);
    IntervalProfiler Prof(DP, P.Spec.IntervalLen);
    RunOptions Ref = P.Ref;
    Ref.Sink = &Prof;
    const double T0 = nowMs();
    runProgramWindowed(DP, Ref, {{0, ~uint64_t(0), ~uint64_t(0)}});
    Prof.finish();
    const double T1 = nowMs();
    makeSamplePlan(Prof, P.Spec);
    Out.ProfileMs += T1 - T0;
    Out.PlanMs += nowMs() - T1;
  }
  for (const StreamRun &S : Rec.Streams) {
    DecodedProgram DP(*S.Prog);
    SuperblockPlan Sb(DP, S.Profile);
    RunOptions Ref = S.Ref;
    Ref.Superblocks = &Sb;
    const double T0 = nowMs();
    runProgram(DP, Ref);
    Out.StreamFunctionalMs += nowMs() - T0;
  }
  return Out;
}

void writeChromeTrace(const std::string &Path) {
  std::ofstream OS(Path);
  OS << "{\"traceEvents\":[";
  bool First = true;
  for (const SpanRec &S : Spans) {
    OS << (First ? "\n" : ",\n") << "{\"name\":\"" << S.Name << "\",\"cat\":\""
       << layerOf(S.Name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Tid
       << ",\"ts\":" << JsonValue::formatDouble(S.Start * 1e3)
       << ",\"dur\":" << JsonValue::formatDouble((S.End - S.Start) * 1e3)
       << ",\"args\":{\"id\":" << S.Id << ",\"parent\":" << S.Parent << "}}";
    First = false;
  }
  OS << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

JsonValue layerMetrics(double WallMs, uint64_t CacheBytes, uint64_t Stores) {
  // Span sums and per-span self times (duration minus the union of its
  // children, across threads).
  std::map<uint64_t, std::vector<std::pair<double, double>>> Children;
  for (const SpanRec &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back({S.Start, S.End});
  std::map<std::string, double> Sum, Self;
  std::map<std::string, uint64_t> Count;
  std::map<std::string, double> LayerSelf;
  std::vector<double> CellMs;
  std::vector<std::pair<double, double>> Roots, Covered;
  for (const SpanRec &S : Spans) {
    const double Dur = S.End - S.Start;
    std::vector<std::pair<double, double>> Kids;
    for (const auto &[A, B] : Children[S.Id])
      Kids.push_back({std::max(A, S.Start), std::min(B, S.End)});
    const double SelfMs = std::max(0.0, Dur - unionLength(Kids));
    Sum[S.Name] += Dur;
    Self[S.Name] += SelfMs;
    ++Count[S.Name];
    if (S.Parent == 0) {
      Roots.push_back({S.Start, S.End});
    } else {
      Covered.push_back({S.Start, S.End});
      LayerSelf[layerOf(S.Name)] += SelfMs;
    }
    if (std::string(S.Name) == "pipeline.cell")
      CellMs.push_back(Dur);
  }
  // Every layer span runs inside the request that caused it, so the
  // union of layer spans is the covered part of the requests' wall time.
  const double RootMs = unionLength(Roots);
  const double CoveredMs = std::min(RootMs, unionLength(Covered));

  const Priced D = priceByDifference();
  const double SampledFunctional = D.StreamFunctionalMs;
  LayerSelf["uarch"] -= D.PowerMs;
  LayerSelf["power"] += D.PowerMs;
  LayerSelf["sample"] -= SampledFunctional;
  LayerSelf["sim"] += SampledFunctional;

  uint64_t ExactInsts = 0, ExactCells = 0;
  std::set<std::string> Binaries;
  for (const CellRun &C : Rec.Cells) {
    Binaries.insert(sampleStreamKey(*C.Prog, C.Ref, C.Uarch, SampleSpec()));
    if (C.Exact) {
      ExactInsts += C.Insts;
      ++ExactCells;
    }
  }
  std::sort(CellMs.begin(), CellMs.end());
  auto Ratio = [](double A, double B) { return B > 0.0 ? A / B : 0.0; };

  const double FunctionalMs = Self["sim.run"] + SampledFunctional;
  const double BatchMs = Sum["uarch.onBatch"];
  const double ReplayMs = Sum["sample.replay"] - SampledFunctional;
  const double Prepare = Sum["sample.prepare"];
  const uint64_t Detailed = ExactInsts + Rec.SampledDetailed;

  JsonValue M = JsonValue::object();
  auto Num = [&](const char *Name, double V) {
    M.set(Name, JsonValue::number(V));
  };
  Num("workloads.build_ms", Sum["workloads.build"]);
  Num("frontend.lift_ms", Sum["frontend.lift"]);
  Num("sim.decode_ms", Sum["sim.decode"]);
  Num("sim.decodes", Count["sim.decode"]);
  Num("opt.transform_ms", Sum["opt.transform"]);
  Num("vrp.narrow_ms", Sum["vrp.narrow"]);
  Num("vrs.specialize_ms", Sum["vrs.specialize"]);
  Num("opt.analysis_hit_ratio",
      Ratio(Rec.AnalysisHits, Rec.AnalysisHits + Rec.AnalysisMisses));
  Num("sim.functional_ms", FunctionalMs);
  Num("sim.functional_mips",
      Ratio(ExactInsts + Rec.StreamInsts, FunctionalMs * 1e3));
  Num("sim.superblock_coverage", Ratio(Rec.SbInsts, Rec.StreamInsts));
  Num("uarch.ooo_ms", BatchMs - D.PowerMs);
  Num("uarch.detailed_insts", Detailed);
  Num("uarch.detailed_mips", Ratio(Detailed, (BatchMs + ReplayMs) * 1e3));
  Num("power.energy_ms", D.PowerMs);
  Num("power.events", D.Events);
  Num("power.derive_ms", Sum["power.derive"]);
  Num("pipeline.cell_ms_p50", CellMs.empty() ? 0.0 : CellMs[CellMs.size() / 2]);
  Num("pipeline.cell_ms_max", CellMs.empty() ? 0.0 : CellMs.back());
  Num("pipeline.detailed_passes", ExactCells + Rec.Streams.size());
  Num("pipeline.distinct_binaries", Binaries.size());
  Num("sample.prepare_ms", Prepare);
  Num("sample.profile_ms", D.ProfileMs);
  Num("sample.plan_ms", D.PlanMs);
  Num("sample.capture_ms", std::max(0.0, Prepare - D.ProfileMs - D.PlanMs));
  Num("sample.replay_ms", ReplayMs);
  Num("sample.prepares", Rec.Preps.size());
  Num("sample.streams", Rec.Streams.size());
  Num("sample.detailed_insts", Rec.SampledDetailed);
  Num("sample.replayed_frac", Ratio(Rec.Replayed, Rec.Streams.size()));
  Num("sample.arch_bytes", Rec.ArchBytes);
  Num("sample.plancache_hits", Rec.PlanHits);
  Num("sample.plancache_misses", Rec.PlanMisses);
  Num("sample.plancache_wait_ms", Self["sample.plancache"]);
  Num("driver.queue_wait_ms", Rec.QueueWaitMs);
  Num("driver.busy_frac", Ratio(Rec.BusyMs, Rec.SlotMs));
  Num("service.hits", Rec.Hits);
  Num("service.misses", Rec.Misses);
  Num("service.inflight_dedups", Rec.Dedups);
  Num("service.hit_ratio", Ratio(Rec.Hits, Rec.Hits + Rec.Misses + Rec.Dedups));
  Num("service.lookup_ms", Sum["service.lookup"]);
  Num("service.store_ms", Sum["service.store"]);
  Num("service.stores", Stores);
  Num("service.cache_bytes", CacheBytes);
  Num("service.rejected", Rec.Rejected);
  Num("report.render_ms", Sum["report.render"]);
  Num("report.doc_bytes", Ratio(Rec.DocBytes, Rec.Docs));
  Num("trace.unaccounted_frac", Ratio(RootMs - CoveredMs, RootMs));

  JsonValue Table = JsonValue::object();
  for (const auto &[Layer, Ms] : LayerSelf)
    Table.set(Layer, JsonValue::number(Ms));
  JsonValue Out = JsonValue::object();
  Out.set("metrics", std::move(M));
  Out.set("self_ms", std::move(Table));
  Out.set("root_ms", JsonValue::number(RootMs));
  Out.set("unaccounted_ms", JsonValue::number(RootMs - CoveredMs));
  Out.set("wall_ms", JsonValue::number(WallMs));
  Out.set("spans", JsonValue::integer(static_cast<uint64_t>(Spans.size())));
  return Out;
}

// --- Modes ---------------------------------------------------------------

std::map<std::string, std::string> parseFlags(int argc, char **argv) {
  std::map<std::string, std::string> F;
  for (int I = 2; I < argc; ++I) {
    const std::string A = argv[I];
    const size_t Eq = A.find('=');
    if (A.rfind("--", 0) != 0 || Eq == std::string::npos)
      throw std::runtime_error("bad argument '" + A + "'");
    F[A.substr(2, Eq - 2)] = A.substr(Eq + 1);
  }
  return F;
}

std::vector<std::string> splitCommas(const std::string &S) {
  std::vector<std::string> Out;
  std::stringstream SS(S);
  for (std::string Item; std::getline(SS, Item, ',');)
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

int runSetup(std::map<std::string, std::string> &F) {
  const std::vector<std::string> Names = splitCommas(F["workloads"]);
  const double Scale = std::stod(F["scale"]);
  const int Reps = std::stoi(F["reps"]);
  JsonValue Times = JsonValue::array();
  for (int R = 0; R < Reps; ++R) {
    const double T0 = nowMs();
    for (const std::string &Name : Names) {
      Workload W = makeWorkload(Name, Scale);
      DecodedProgram DP(W.Prog);
    }
    Times.push(JsonValue::number((nowMs() - T0) / 1e3));
  }
  JsonValue Out = JsonValue::object();
  Out.set("setup_s", std::move(Times));
  std::cout << Out.toCompactString() << "\n";
  return 0;
}

int runCheck(std::map<std::string, std::string> &F) {
  SweepRequest R;
  R.Workloads = splitCommas(F["workloads"]);
  R.Scale = std::stod(F["scale"]);
  Expected<std::vector<ExperimentSpec>> Specs = R.buildSpecs();
  Expected<JsonValue> Doc = readJsonFile(F["doc"]);
  if (!Specs || !Doc) {
    std::cerr << "perfbench-trace: " << (!Specs ? Specs.error() : Doc.error())
              << "\n";
    return 1;
  }
  std::map<std::string, int64_t> DocInsts;
  const JsonValue *Cells = Doc->get("cells");
  for (size_t I = 0; Cells && I < Cells->size(); ++I) {
    const JsonValue &C = Cells->at(I);
    DocInsts[C.get("workload")->asString() + "/" +
             C.get("config")->asString()] =
        C.get("counters")->get("dyn-insts")->asInt();
  }
  uint64_t Checked = 0;
  JsonValue Errors = JsonValue::array();
  std::map<std::string, std::shared_ptr<Workload>> Built;
  std::map<std::string, RunResult> Base, ByBinary;
  for (const ExperimentSpec &S : *Specs) {
    std::shared_ptr<Workload> &W = Built[S.Workload];
    if (!W) {
      W = std::make_shared<Workload>(makeWorkload(S.Workload, S.Scale));
      Base[S.Workload] = runProgram(W->Prog, W->Ref);
    }
    Fnv1a H;
    H.u64(static_cast<uint64_t>(S.Config.Sw));
    H.f64(S.Config.VrsTestCostNJ);
    hashNarrowingOptions(H, S.Config.Narrow);
    const std::string Key = S.Workload + "#" + std::to_string(H.hash());
    auto It = ByBinary.find(Key);
    if (It == ByBinary.end()) {
      PipelineResult Res;
      Res.Transformed = W->Prog;
      transform(*W, S.Config, Res);
      It = ByBinary.emplace(Key, runProgram(Res.Transformed, W->Ref)).first;
    }
    const RunResult &Run = It->second;
    ++Checked;
    const char *Why = nullptr;
    if (Run.Status != RunStatus::Halted)
      Why = "no-halt";
    else if (Run.Output != Base[S.Workload].Output)
      Why = "output";
    else if (!DocInsts.count(S.name()))
      Why = "missing";
    else if (DocInsts[S.name()] != static_cast<int64_t>(Run.Stats.DynInsts))
      Why = "dyn-insts";
    if (Why) {
      JsonValue E = JsonValue::object();
      E.set("cell", JsonValue::str(S.name()));
      E.set("why", JsonValue::str(Why));
      Errors.push(std::move(E));
    }
  }
  JsonValue Out = JsonValue::object();
  Out.set("checked", JsonValue::integer(Checked));
  Out.set("failed", JsonValue::integer(static_cast<uint64_t>(Errors.size())));
  Out.set("errors", std::move(Errors));
  std::cout << Out.toCompactString() << "\n";
  return 0;
}

int runServeMode(std::map<std::string, std::string> &F) {
  std::vector<std::string> Lines;
  {
    std::ifstream In(F["requests"]);
    for (std::string L; std::getline(In, L);)
      Lines.push_back(L);
  }
  ServiceOptions SO;
  SO.Jobs = F.count("jobs") ? std::stoul(F["jobs"]) : 1;
  SO.CacheDir = F["cache-dir"];
  const unsigned Clients = F.count("clients") ? std::stoul(F["clients"]) : 1;
  const size_t From = F.count("measure-from") ? std::stoul(F["measure-from"]) : 0;
  const std::string TracePath = F["trace"];
  const std::string Out = F["out"];

  std::vector<Reply> Replies;
  double WallMs = 0.0;
  uint64_t CacheBytes = 0, Stores = 0;
  auto ResetProbes = [] {
    std::lock_guard<std::mutex> Lock(SpansM);
    Spans.clear();
    Rec.clear();
  };
  if (TracePath.empty()) {
    SweepService Service(SO);
    WallMs = serveAll(
        Lines, From, Clients,
        [&](const SweepRequest &R) { return Service.serve(R); }, Replies,
        ResetProbes);
  } else {
    Tracing = true;
    TracedService Service(SO);
    WallMs = serveAll(
        Lines, From, Clients,
        [&](const SweepRequest &R) { return Service.serve(R); }, Replies,
        ResetProbes);
    Tracing = false;
    CacheBytes = Service.cacheBytes();
    Stores = Service.stores();
  }

  std::ofstream Resp(Out + "/responses.jsonl");
  JsonValue Lat = JsonValue::array();
  for (const Reply &R : Replies) {
    Resp << R.Line << "\n";
    Lat.push(JsonValue::number(R.Ms));
  }
  JsonValue LatDoc = JsonValue::object();
  LatDoc.set("serve_ms", std::move(Lat));
  LatDoc.set("wall_ms", JsonValue::number(WallMs));
  std::string Err;
  if (!writeJsonFile(Out + "/latency.json", LatDoc, &Err)) {
    std::cerr << "perfbench-trace: " << Err << "\n";
    return 1;
  }

  JsonValue Result = JsonValue::object();
  if (F.count("expect-doc")) {
    std::ifstream In(F["expect-doc"], std::ios::binary);
    std::stringstream Want;
    Want << In.rdbuf();
    Expected<JsonValue> Got =
        Replies.empty() ? makeError<JsonValue>("no reply")
                        : parseJson(Replies[0].Line);
    Result.set("expect_doc_match",
               JsonValue::boolean(Got && Got->toString() == Want.str()));
  }
  if (!TracePath.empty()) {
    Result.set("layers", layerMetrics(WallMs, CacheBytes, Stores));
    writeChromeTrace(TracePath);
  }
  std::cout << Result.toCompactString() << "\n";
  return 0;
}

} // namespace

namespace {

pid_t Child = -1;

void forwardSignal(int Sig) {
  if (Child > 0)
    ::kill(Child, Sig);
}

/// Runs argv[2..] with stdout on /dev/null and reports its exit code, wall
/// time and peak RSS. Linux carries a process's pre-exec RSS high-water
/// mark across exec, so a tool forked straight from run.py (a larger
/// Python process) would report Python's RSS; forked from this small
/// process it reports its own.
int runSpawn(char **Cmd) {
  std::signal(SIGTERM, forwardSignal);
  std::signal(SIGINT, forwardSignal);
  const double T0 = nowMs();
  Child = ::fork();
  if (Child == 0) {
    const int Null = ::open("/dev/null", O_WRONLY);
    ::dup2(Null, STDOUT_FILENO);
    ::execvp(Cmd[0], Cmd);
    _exit(127);
  }
  int Status = 0;
  struct rusage RU = {};
  while (::wait4(Child, &Status, 0, &RU) < 0 && errno == EINTR) {
  }
  JsonValue Out = JsonValue::object();
  Out.set("exit", JsonValue::integer(WIFEXITED(Status) ? WEXITSTATUS(Status)
                                                      : 128 + WTERMSIG(Status)));
  Out.set("wall_s", JsonValue::number((nowMs() - T0) / 1e3));
  Out.set("maxrss_mb", JsonValue::number(RU.ru_maxrss / 1024.0));
  std::cout << Out.toCompactString() << "\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  const std::string Mode = argc > 1 ? argv[1] : "";
  if (Mode == "spawn" && argc > 2)
    return runSpawn(argv + 2);
  try {
    std::map<std::string, std::string> F = parseFlags(argc, argv);
    if (Mode == "setup")
      return runSetup(F);
    if (Mode == "check")
      return runCheck(F);
    if (Mode == "serve")
      return runServeMode(F);
  } catch (const std::exception &E) {
    std::cerr << "perfbench-trace: " << E.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench-trace setup|check|serve --flag=value...\n";
  return 2;
}
