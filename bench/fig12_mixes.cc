// Reproduces Fig. 12: weighted average response time across workload
// mixes — Browsing (read-only), Bidding, and the bidding mix with write
// transactions scaled 10x and 100x — for the NoSE / Normalized / Expert
// schemas. NoSE advises every mix in one shared-pool pass
// (Advisor::AdviseAllMixes): the three bidding-derived mixes weight the
// same statement set, so candidate enumeration and plan spaces run once
// and only the BIP re-solves per mix. The baselines are fixed.
//
//   fig12_mixes [--compare] [--json FILE]
//
// --compare additionally re-advises each mix with the per-mix path
// (Advisor::Recommend), checks the recommendations are identical, and
// reports both advising wall times; --json appends nose-bench-v1 records
// (one "advising" record plus one per mix, which pins the recommendation's
// objective and schema size) to FILE.
//
// Environment: NOSE_RUBIS_SCALE (default 0.25), NOSE_FIG12_TRANSACTIONS
// (default 1500 sampled transactions per mix).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/rubis_driver.h"
#include "util/rng.h"

namespace nose::bench {
namespace {

int Main(int argc, char** argv) {
  bool compare = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare") == 0) {
      compare = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: fig12_mixes [--compare] [--json FILE]\n");
      return 2;
    }
  }
  const char* env = std::getenv("NOSE_FIG12_TRANSACTIONS");
  const int samples = env != nullptr ? std::atoi(env) : 1500;

  BenchJsonWriter json;
  if (!json_path.empty() && !json.Open(json_path, "fig12_mixes")) {
    return 1;
  }

  RubisBench bench;
  std::printf("Fig. 12 — weighted average response time per workload mix "
              "(%d sampled transactions each)\n\n",
              samples);

  const std::vector<std::pair<std::string, std::string>> mixes = {
      {"Browsing", rubis::kBrowsingMix},
      {"Bidding", rubis::kBiddingMix},
      {"10x", rubis::kWrite10xMix},
      {"100x", rubis::kWrite100xMix},
  };

  // One shared-pool advising pass covers every mix: the bidding-derived
  // mixes reuse one candidate pool and one set of plan spaces.
  std::vector<std::string> mix_names;
  for (const auto& [label, mix] : mixes) mix_names.push_back(mix);
  const double shared_seconds = bench.PrepareNoseRecommendations(mix_names);
  std::printf("NoSE advising (shared pool, %zu mixes): %.2fs\n", mixes.size(),
              shared_seconds);

  double per_mix_seconds = 0.0;
  if (compare) {
    // Baseline: advise each mix independently, and insist the shared-pool
    // recommendations are the ones the per-mix path produces.
    Advisor advisor;
    Stopwatch watch;
    std::vector<Recommendation> baseline;
    for (const auto& [label, mix] : mixes) {
      auto rec = advisor.Recommend(bench.workload(), mix);
      if (!rec.ok()) RubisBench::Die("advisor/" + mix, rec.status());
      baseline.push_back(std::move(rec).value());
    }
    per_mix_seconds = watch.ElapsedSeconds();
    std::printf("NoSE advising (per-mix baseline):       %.2fs (%.2fx)\n",
                per_mix_seconds, per_mix_seconds / shared_seconds);
    for (size_t k = 0; k < mixes.size(); ++k) {
      const Recommendation* shared = bench.StagedNoseRecommendation(mixes[k].second);
      if (shared == nullptr ||
          shared->ToString() != baseline[k].ToString() ||
          shared->objective != baseline[k].objective) {
        std::fprintf(stderr,
                     "error: shared-pool recommendation for mix %s differs "
                     "from the per-mix path\n",
                     mixes[k].second.c_str());
        return 1;
      }
      std::printf("  %-10s bb nodes: shared %d, per-mix %d\n",
                  mixes[k].first.c_str(), shared->bb_nodes,
                  baseline[k].bb_nodes);
    }
    std::printf("per-mix and shared-pool recommendations are identical\n");
  }
  std::printf("\n%-10s %12s %12s %12s   (avg simulated ms/transaction)\n",
              "Mix", "NoSE", "Normalized", "Expert");

  for (const auto& [label, mix] : mixes) {
    auto sampler = rubis::TransactionSampler::ForMix(mix);
    if (!sampler.ok()) RubisBench::Die("sampler/" + mix, sampler.status());

    auto nose = bench.MakeNose(mix);
    auto normalized = bench.MakeNormalized(mix);
    auto expert = bench.MakeExpert(mix);
    SchemaUnderTest* suts[3] = {nose.get(), normalized.get(), expert.get()};

    double avg[3] = {0, 0, 0};
    for (int s = 0; s < 3; ++s) {
      Rng pick(0xF16'12);  // identical transaction stream per schema
      rubis::ParamGenerator gen(&bench.data(), 0xF16'12 + 31 * s);
      double sum = 0.0;
      for (int i = 0; i < samples; ++i) {
        sum += bench.RunTransaction(suts[s], sampler->Pick(&pick), &gen);
      }
      avg[s] = sum / samples;
    }
    std::printf("%-10s %12.3f %12.3f %12.3f\n", label.c_str(), avg[0], avg[1],
                avg[2]);
    // The recommendation and the simulated store cost per transaction are
    // deterministic, and their names carry no timing suffix, so
    // bench_compare pins them at rtol rather than the one-sided timing
    // band.
    json.Instance(mix)
        .Metric("samples", static_cast<double>(samples))
        .Metric("nose_objective", nose->rec->objective)
        .Metric("nose_schema_size",
                static_cast<double>(nose->rec->schema.size()))
        .Metric("nose_sim_cost", avg[0])
        .Metric("normalized_sim_cost", avg[1])
        .Metric("expert_sim_cost", avg[2]);
  }
  std::printf(
      "\npaper shape check: NoSE wins Browsing/Bidding/10x; under 100x the "
      "Expert schema closes in (it shares support work NoSE re-fetches).\n");

  {
    auto record = json.Instance("advising");
    record.Metric("mixes", static_cast<double>(mixes.size()))
        .Metric("shared_pool_advise_seconds", shared_seconds);
    if (compare) {
      record.Metric("per_mix_advise_seconds", per_mix_seconds)
          .Metric("speedup", per_mix_seconds / shared_seconds);
    }
    record.Label("compare", compare);
  }
  json.Close();
  return 0;
}

}  // namespace
}  // namespace nose::bench

int main(int argc, char** argv) { return nose::bench::Main(argc, argv); }
