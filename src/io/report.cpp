#include "io/report.hpp"

#include <map>
#include <sstream>

#include "io/tables.hpp"
#include "util/strings.hpp"

namespace wharf::io {

namespace {

/// The data behind one table row.  Null pointers mean "the answer is
/// missing" (a failed or absent query) and render as "error" cells.
struct ChainRowData {
  const LatencyResult* full = nullptr;
  const LatencyResult* typical = nullptr;
  const std::vector<DmmResult>* curve = nullptr;  ///< required only for weakly-hard chains
};

/// The table layout: chain | D | WCL | WCL w/o overload | verdict |
/// dmm(k)...
std::string render_chain_table(const System& system, const std::vector<Count>& ks,
                               const std::map<int, ChainRowData>& rows) {
  std::vector<std::string> headers = {"chain", "D", "WCL", "WCL w/o overload", "verdict"};
  for (Count k : ks) headers.push_back(util::cat("dmm(", k, ")"));
  TextTable table(std::move(headers));

  const auto wcl_cell = [](const LatencyResult* r) -> std::string {
    if (r == nullptr) return "error";
    return r->bounded ? util::cat(r->wcl) : "unbounded";
  };

  for (int c : system.regular_indices()) {
    const Chain& chain = system.chain(c);
    const ChainRowData& data = rows.at(c);
    std::vector<std::string> row;
    row.push_back(chain.name());
    row.push_back(chain.deadline().has_value() ? util::cat(*chain.deadline()) : "-");
    row.push_back(wcl_cell(data.full));
    row.push_back(wcl_cell(data.typical));

    if (!chain.deadline().has_value()) {
      row.push_back("no deadline");
      for (std::size_t i = 0; i < ks.size(); ++i) row.push_back("-");
    } else if (data.full == nullptr) {
      row.push_back("error");
      for (std::size_t i = 0; i < ks.size(); ++i) row.push_back("error");
    } else if (!data.full->bounded) {
      row.push_back("no guarantee");
      for (Count k : ks) row.push_back(util::cat(k));
    } else if (data.full->schedulable) {
      row.push_back("always meets");
      for (std::size_t i = 0; i < ks.size(); ++i) row.push_back("0");
    } else if (data.curve == nullptr) {
      row.push_back("error");
      for (std::size_t i = 0; i < ks.size(); ++i) row.push_back("error");
    } else {
      row.push_back("weakly hard");
      for (std::size_t i = 0; i < ks.size(); ++i) {
        if (i >= data.curve->size()) {
          row.push_back("-");
          continue;
        }
        const DmmResult& r = (*data.curve)[i];
        row.push_back(r.status == DmmStatus::kNoGuarantee ? util::cat(r.dmm, " (no guar.)")
                                                          : util::cat(r.dmm));
      }
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

}  // namespace

std::string render_report(const System& system, const AnalysisReport& report) {
  // Index the answers by (chain, flavour).
  std::map<std::string, const LatencyResult*> full_latency;
  std::map<std::string, const LatencyResult*> typical_latency;
  std::map<std::string, const std::vector<DmmResult>*> dmm;
  bool any_error = false;
  for (const QueryResult& r : report.results) {
    if (!r.ok()) {
      any_error = true;
      continue;
    }
    if (const auto* lat = std::get_if<LatencyAnswer>(&r.answer)) {
      (lat->without_overload ? typical_latency : full_latency)[lat->chain] = &lat->result;
    } else if (const auto* d = std::get_if<DmmAnswer>(&r.answer)) {
      dmm[d->chain] = &d->curve;
    }
  }

  std::vector<Count> ks;
  for (const auto& [name, curve] : dmm) {
    if (!curve->empty()) {
      for (const DmmResult& r : *curve) ks.push_back(r.k);
      break;
    }
  }
  if (ks.empty()) ks.push_back(10);

  std::map<int, ChainRowData> rows;
  for (int c : system.regular_indices()) {
    const std::string& name = system.chain(c).name();
    ChainRowData data;
    if (const auto it = full_latency.find(name); it != full_latency.end()) data.full = it->second;
    if (const auto it = typical_latency.find(name); it != typical_latency.end()) {
      data.typical = it->second;
    }
    if (const auto it = dmm.find(name); it != dmm.end()) data.curve = it->second;
    rows[c] = data;
  }

  std::ostringstream out;
  out << "System '" << system.name() << "': " << system.size() << " chains, "
      << system.task_count() << " tasks, utilization upper bound " << system.utilization()
      << "\n\n";
  out << render_chain_table(system, ks, rows);
  if (!system.overload_indices().empty()) out << "\nOverload chains (C_over):\n";
  for (const int c : system.overload_indices()) {
    const Chain& chain = system.chain(c);
    out << "  " << chain.name() << ": " << chain.arrival().describe() << ", total WCET "
        << chain.total_wcet() << '\n';
  }

  const std::string cache_line = render_diagnostics(report.diagnostics);
  if (!cache_line.empty()) out << '\n' << cache_line << '\n';

  const Status status = report.worst_status();
  if (!status.is_ok() || any_error) {
    out << "\nstatus: " << status.to_string() << '\n';
  }
  return out.str();
}

std::string render_diagnostics(const ReportDiagnostics& diagnostics) {
  const std::size_t lookups = total(diagnostics.stages).lookups;

  std::ostringstream out;
  if (lookups > 0) {
    out << "artifact cache:";
    for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
      const StageDiagnostics& stage = diagnostics.stages[s];
      out << ' ' << to_string(static_cast<ArtifactStage>(static_cast<int>(s))) << ' '
          << stage.hits << '/' << stage.lookups;
    }
    out << " (hits/lookups)";
  }
  if (diagnostics.search_evaluations > 0) {
    if (lookups > 0) out << '\n';
    out << "search store: " << diagnostics.search_hits << " hits / "
        << diagnostics.search_misses << " misses / " << diagnostics.search_shared
        << " shared over " << diagnostics.search_evaluations << " evaluations";
  }
  return out.str();
}

}  // namespace wharf::io
