/// \file path_reference.cpp
/// The standalone path analyzer, moved out of libwharf once the Engine's
/// PathLatencyQuery/PathDmmQuery became the only production path.  Its
/// per-chain oracle runs the direct analyses with no artifact store.

#include "oracles/path_reference.hpp"

namespace wharf::reference {

namespace {

/// Standalone analyses on the given system (one TwcaAnalyzer per
/// budgeted variant).
class AnalyzerOracle final : public PathChainOracle {
 public:
  AnalyzerOracle(const System& system, const TwcaOptions& options)
      : system_(system), options_(options) {}

  LatencyResult latency(int chain) override {
    return latency_analysis(system_, chain, options_.analysis);
  }

  DmmResult dmm_with_budget(int chain, Time budget, Count k) override {
    const TwcaAnalyzer analyzer{system_.with_deadline(chain, budget), options_};
    return analyzer.dmm(chain, k);
  }

 private:
  const System& system_;
  const TwcaOptions& options_;
};

}  // namespace

PathAnalyzer::PathAnalyzer(System system, TwcaOptions options)
    : system_(std::move(system)), options_(options) {}

PathLatencyResult PathAnalyzer::latency(const PathSpec& path) const {
  AnalyzerOracle oracle{system_, options_};
  return path_latency(system_, path, oracle);
}

PathDmmResult PathAnalyzer::dmm(const PathSpec& path, Count k) const {
  AnalyzerOracle oracle{system_, options_};
  return path_dmm(system_, path, k, oracle);
}

}  // namespace wharf::reference
