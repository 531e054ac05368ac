//===- micro_components.cpp - google-benchmark micro-benchmarks ---------------===//
//
// Part of the pathfuzz project.
//
// Micro-benchmarks for the per-execution hot paths backing the overhead
// claims: coverage-map classification and novelty checking, VM execution
// under each instrumentation mode, and the havoc mutator. These isolate
// the component costs that Appendix A's end-to-end replay aggregates.
//
//===----------------------------------------------------------------------===//

#include "cov/CoverageMap.h"
#include "fuzz/Mutator.h"
#include "instrument/Instrument.h"
#include "lang/Compile.h"
#include "targets/Targets.h"
#include "telemetry/Trace.h"
#include "vm/Vm.h"

#include <benchmark/benchmark.h>

using namespace pathfuzz;

namespace {

void BM_ClassifyCounts(benchmark::State &State) {
  cov::CoverageMap Map(16);
  Rng R(1);
  for (int I = 0; I < 400; ++I)
    Map.data()[R.below(Map.size())] = static_cast<uint8_t>(R.next());
  for (auto _ : State) {
    cov::CoverageMap Copy = Map;
    Copy.classifyCounts();
    benchmark::DoNotOptimize(Copy.data());
  }
}
BENCHMARK(BM_ClassifyCounts);

void BM_HasNewBits(benchmark::State &State) {
  cov::CoverageMap Map(16);
  Rng R(2);
  for (int I = 0; I < 400; ++I)
    Map.data()[R.below(Map.size())] = 1;
  Map.classifyCounts();
  cov::VirginMap Virgin(Map.size());
  Virgin.hasNewBits(Map); // saturate: steady-state is the common case
  for (auto _ : State) {
    benchmark::DoNotOptimize(Virgin.hasNewBits(Map));
  }
}
BENCHMARK(BM_HasNewBits);

void BM_Havoc(benchmark::State &State) {
  Rng R(3);
  fuzz::MutatorConfig MC;
  fuzz::Mutator Mut(R, MC);
  std::vector<int64_t> Dict = {0x2a, 255, 1024};
  fuzz::Input Base(128, 'x');
  // One reused buffer with MaxLen capacity, as Fuzzer::run mutates.
  fuzz::Input Data;
  Data.reserve(MC.MaxLen);
  for (auto _ : State) {
    Data.assign(Base.begin(), Base.end());
    Mut.havoc(Data, Dict);
    benchmark::DoNotOptimize(Data.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Havoc);

void BM_Splice(benchmark::State &State) {
  Rng R(5);
  fuzz::MutatorConfig MC;
  fuzz::Mutator Mut(R, MC);
  std::vector<int64_t> Dict = {0x2a, 255, 1024};
  fuzz::Input Base(128, 'x');
  fuzz::Input Donor(96, 'y');
  fuzz::Input Data;
  Data.reserve(MC.MaxLen);
  for (auto _ : State) {
    Data.assign(Base.begin(), Base.end());
    Mut.splice(Data, Donor, Dict);
    benchmark::DoNotOptimize(Data.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Splice);

/// VM execution of one subject seed under a given instrumentation.
void runVmBench(benchmark::State &State, instr::Feedback Mode) {
  const targets::Subject *S = targets::findSubject("jhead");
  lang::CompileResult CR = lang::compileSource(S->Source, S->Name);
  mir::Module M = std::move(*CR.Mod);
  instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(M);
  instr::InstrumentOptions IO;
  IO.Mode = Mode;
  instr::InstrumentReport Rep = instr::instrumentModule(M, IO);

  vm::Vm Machine(M, &Shadow);
  cov::CoverageMap Trace(16);
  vm::ExecOptions EO;
  const fuzz::Input &In = S->Seeds[0];
  for (auto _ : State) {
    Trace.reset();
    vm::FeedbackContext Fb;
    Fb.Map = Trace.data();
    Fb.MapMask = Trace.mask();
    Fb.FuncKeys = Rep.FuncKeys.data();
    benchmark::DoNotOptimize(
        Machine.run(In.data(), In.size(), EO, &Fb).Steps);
  }
}

void BM_VmUninstrumented(benchmark::State &State) {
  runVmBench(State, instr::Feedback::None);
}
BENCHMARK(BM_VmUninstrumented);

void BM_VmEdgePrecise(benchmark::State &State) {
  runVmBench(State, instr::Feedback::EdgePrecise);
}
BENCHMARK(BM_VmEdgePrecise);

void BM_VmEdgeClassic(benchmark::State &State) {
  runVmBench(State, instr::Feedback::EdgeClassic);
}
BENCHMARK(BM_VmEdgeClassic);

void BM_VmPath(benchmark::State &State) {
  runVmBench(State, instr::Feedback::Path);
}
BENCHMARK(BM_VmPath);

// Telemetry hot-path costs. The disabled case is the one every untraced
// execution pays: PF_TRACE_EVENT against a null recorder, i.e. one
// branch. The enabled cases bound the per-exec cost a traced campaign
// adds (one ring push + a couple of histogram observes).

void BM_TraceEventDisabled(benchmark::State &State) {
  telemetry::InstanceTrace *Tr = nullptr;
  uint64_t Exec = 0;
  for (auto _ : State) {
    ++Exec;
    PF_TRACE_EVENT(Tr, telemetry::EventKind::ExecCompleted, Exec, 64, 1000, 0);
    benchmark::DoNotOptimize(Tr);
  }
}
BENCHMARK(BM_TraceEventDisabled);

void BM_TraceEventEnabled(benchmark::State &State) {
  telemetry::TraceConfig Cfg;
  Cfg.Enabled = true;
  telemetry::InstanceTrace Trace(Cfg);
  telemetry::InstanceTrace *Tr = &Trace;
  (void)Tr; // PF_TRACE_EVENT is empty under PATHFUZZ_NO_TELEMETRY
  uint64_t Exec = 0;
  for (auto _ : State) {
    ++Exec;
    PF_TRACE_EVENT(Tr, telemetry::EventKind::ExecCompleted, Exec, 64, 1000, 0);
    benchmark::DoNotOptimize(Trace.ring().recorded());
  }
}
BENCHMARK(BM_TraceEventEnabled);

void BM_HistogramObserve(benchmark::State &State) {
  telemetry::Histogram H;
  uint64_t V = 1;
  for (auto _ : State) {
    H.observe(V);
    V = V * 2862933555777941757ULL + 3037000493ULL; // cheap LCG spread
    benchmark::DoNotOptimize(H);
  }
}
BENCHMARK(BM_HistogramObserve);

} // namespace

BENCHMARK_MAIN();
