// Ablation: the value of each candidate-enumeration feature (predicate
// relaxation, key/value splits, Combine).
//
// Two subjects:
//  - RUBiS bidding: simple per-page queries, where full materialized views
//    win regardless.
//  - Hotel with an update-heavy range query (the paper's Fig. 6 setting).
// On both, no toggle changes the optimal workload cost (hotel 4.3500 and
// RUBiS 0.5499 in every row of bench_results/ablation_enum.txt): the
// always-generated decomposition-split candidates cover the plans the
// features would add, so here they only trade pool size against advisor
// runtime. Where the features do raise the optimum — random workloads and
// the Fig. 13 scales — see the enumeration-ablation measurement in
// ROADMAP.md.

//   ablation_enumeration [--json FILE]
//
// --json appends one nose-bench-v1 record per subject/config pair
// (instance "hotel/no-relaxation" etc.) to FILE.

#include <cstdio>
#include <cstring>
#include <string>

#include "advisor/advisor.h"
#include "bench/bench_json.h"
#include "parser/model_parser.h"
#include "parser/workload_parser.h"
#include "rubis/model.h"
#include "rubis/workload.h"

namespace nose::bench {
namespace {

constexpr const char* kHotelModel = R"(
entity Hotel 100 {
  HotelCity string card 20
}
entity Room 10000 {
  RoomRate float card 100
}
entity Reservation 100000 { id ResID }
entity Guest 50000 {
  GuestName string
  GuestEmail string
}
relationship Hotel one_to_many Room as Rooms / Hotel
relationship Room one_to_many Reservation as Reservations / Room
relationship Guest one_to_many Reservation as Reservations / Guest
)";

// The Fig. 3 query plus a frequent RoomRate update: with relaxation the
// advisor can defer the rate predicate out of the keys (Fig. 6's CF2+CF5
// plan shape) and keep maintenance cheap; without it, the rate sits in a
// clustering key and every reprice rewrites records.
constexpr const char* kHotelWorkload = R"(
statement guests_by_city 1 :
  SELECT Guest.GuestName, Guest.GuestEmail
  FROM Guest.Reservations.Room.Hotel
  WHERE Hotel.HotelCity = ?city AND Room.RoomRate > ?rate ;
statement reprice 20 :
  UPDATE Room SET RoomRate = ?rate WHERE Room.RoomID = ?room ;
)";

void RunConfigs(const Workload& workload, const char* subject,
                const char* subject_key, BenchJsonWriter* json) {
  struct Config {
    const char* label;
    bool relax, split, combine;
  };
  const Config configs[] = {
      {"full", true, true, true},
      {"no-relaxation", false, true, true},
      {"no-splits", true, false, true},
      {"no-combine", true, true, false},
      {"minimal", false, false, false},
  };
  std::printf("%s\n", subject);
  std::printf("%-15s %7s %10s %8s %9s\n", "config", "cands", "est.cost",
              "schema", "time(s)");
  double full_cost = 0.0;
  for (const Config& cfg : configs) {
    AdvisorOptions options;
    options.enumerator.enable_relaxation = cfg.relax;
    options.enumerator.enable_splits = cfg.split;
    options.enumerator.enable_combination = cfg.combine;
    Advisor advisor(options);
    auto rec = advisor.Recommend(workload);
    if (!rec.ok()) {
      std::printf("%-15s FAILED: %s\n", cfg.label,
                  rec.status().ToString().c_str());
      continue;
    }
    if (full_cost == 0.0) full_cost = rec->objective;
    std::printf("%-15s %7zu %10.4f %8zu %9.2f   (%.3fx of full)\n", cfg.label,
                rec->num_candidates, rec->objective, rec->schema.size(),
                rec->timing.total_seconds, rec->objective / full_cost);
    json->Instance(std::string(subject_key) + "/" + cfg.label)
        .Metric("candidates", static_cast<double>(rec->num_candidates))
        .Metric("objective", rec->objective)
        .Metric("schema_size", static_cast<double>(rec->schema.size()))
        .Metric("cost_vs_full", rec->objective / full_cost)
        .Metric("total_seconds", rec->timing.total_seconds);
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: ablation_enumeration [--json FILE]\n");
      return 2;
    }
  }
  BenchJsonWriter json;
  if (!json_path.empty() && !json.Open(json_path, "ablation_enumeration")) {
    return 1;
  }

  std::printf("Enumeration-feature ablation\n\n");
  {
    auto graph = ParseModel(kHotelModel);
    if (!graph.ok()) return 1;
    auto workload = ParseWorkload(**graph, kHotelWorkload);
    if (!workload.ok()) return 1;
    RunConfigs(**workload, "hotel: range query + frequent repricing", "hotel",
               &json);
  }
  {
    auto graph = rubis::MakeGraph();
    if (!graph.ok()) return 1;
    auto workload = rubis::MakeWorkload(**graph);
    if (!workload.ok()) return 1;
    RunConfigs(**workload, "RUBiS bidding workload", "rubis", &json);
  }
  json.Close();
  std::printf(
      "observed: the optima are near-identical across configs — our\n"
      "decomposition-split candidates (always generated) subsume the plans\n"
      "relaxation/splits/Combine would otherwise enable on these workloads,\n"
      "so the features mainly trade pool size against advisor runtime. This\n"
      "matches the paper\'s remark that enumeration breadth is a runtime/\n"
      "quality tradeoff (§IV-A3).\n");
  return 0;
}

}  // namespace
}  // namespace nose::bench

int main(int argc, char** argv) { return nose::bench::Main(argc, argv); }
