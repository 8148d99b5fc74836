#ifndef LIMA_RUNTIME_ANALYSIS_H_
#define LIMA_RUNTIME_ANALYSIS_H_

#include <string>
#include <vector>

#include "runtime/program.h"

namespace lima {

/// Inputs/outputs of a block sequence from live-variable analysis:
/// `inputs` are variables read before (definitely) written, `outputs` are
/// all variables possibly written. Both in first-occurrence order.
struct BodyVars {
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
};

/// Conservative live-variable analysis over a block sequence (Sec. 3.2 /
/// 4.1: loop/function inputs and outputs for dedup and multi-level reuse).
BodyVars AnalyzeBodyVars(const std::vector<BlockPtr>& blocks);

/// Whole-program analysis pass, run once after compilation:
///  - fills every for/while loop's LoopDedupInfo (eligibility: last-level
///    loops without function calls and with at most 20 branches; branch IDs
///    assigned in depth-first order; body inputs/outputs),
///  - computes function determinism (no nondeterministic operations or
///    eval, and only deterministic callees) for multi-level reuse.
void AnalyzeProgram(Program* program);

/// Drops every function that main cannot reach through the transitive
/// closure of its fcall instructions (predicates included), together with
/// the static-plan instruction rows and fusion sites recorded for those
/// functions. The plan's summary counters keep describing the program as
/// analyzed. Prunes nothing when reachable code contains an eval, which
/// resolves function names at run time. Unreachable code never executes, so
/// outputs and lineage do not change. Returns the number of functions
/// dropped.
int PruneUnreachableFunctions(Program* program);

}  // namespace lima

#endif  // LIMA_RUNTIME_ANALYSIS_H_
