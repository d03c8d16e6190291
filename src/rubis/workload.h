#ifndef NOSE_RUBIS_WORKLOAD_H_
#define NOSE_RUBIS_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/statusor.h"
#include "workload/workload.h"

namespace nose::rubis {

/// Mix names used by the Fig. 12 experiment.
inline constexpr const char* kBiddingMix = "default";  // bidding == default
inline constexpr const char* kBrowsingMix = "browsing";
inline constexpr const char* kWrite10xMix = "write10x";
inline constexpr const char* kWrite100xMix = "write100x";

/// One RUBiS user transaction: a named group of workload statements
/// executed together for a single request to the application server
/// (Fig. 11's x-axis categories).
struct Transaction {
  std::string name;
  std::vector<std::string> statements;
  /// Relative frequency in the bidding / browsing mixes (0 = absent).
  double bidding_weight = 0.0;
  double browsing_weight = 0.0;
  /// True if the transaction writes (its weight scales in the 10x/100x
  /// mixes, paper §VII-A).
  bool is_write = false;
};

/// The fourteen RUBiS bidding-workload transactions. Region browse/search
/// pages are excluded as in the paper.
const std::vector<Transaction>& Transactions();

/// Weight of `tx` under `mix` (0 for an unknown mix): the one definition
/// of a mix, from which MakeWorkload's statement weights and every
/// TransactionSampler derive. write10x/write100x scale the bidding weight
/// of write transactions.
double TransactionWeight(const Transaction& tx, const std::string& mix);

/// Draws transactions in proportion to their weight under one mix.
class TransactionSampler {
 public:
  struct Entry {
    const Transaction* tx = nullptr;
    double weight = 0.0;
    double cumulative = 0.0;  ///< running weight total through this entry
  };

  /// InvalidArgument when `mix` weights no transaction.
  static StatusOr<TransactionSampler> ForMix(const std::string& mix);

  /// One transaction drawn with `rng`.
  const Transaction& Pick(Rng* rng) const;

  /// The transactions with positive weight, in Transactions() order.
  const std::vector<Entry>& entries() const { return entries_; }
  /// Σ weight over the mix's transactions.
  double total() const { return total_; }

 private:
  std::vector<Entry> entries_;
  double total_ = 0.0;
};

/// Builds the full RUBiS workload over `graph`: every statement of every
/// transaction, with statement weights equal to the sum of the
/// TransactionWeight of the transactions using them under each mix
/// (bidding = default mix, browsing, write10x, write100x).
StatusOr<std::unique_ptr<Workload>> MakeWorkload(const EntityGraph& graph);

}  // namespace nose::rubis

#endif  // NOSE_RUBIS_WORKLOAD_H_
