#include "cost/cost_coefficients.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace vpart {

std::shared_ptr<const Instance> BorrowInstance(const Instance& instance) {
  // Aliasing constructor with an empty owner: no control block, no
  // ownership — a shared_ptr-shaped raw pointer for scoped lifetimes.
  return std::shared_ptr<const Instance>(std::shared_ptr<const Instance>(),
                                         &instance);
}

CostCoefficients::CostCoefficients(std::shared_ptr<const Instance> instance,
                                   CostParams params, std::string backend)
    : instance_(std::move(instance)),
      params_(params),
      backend_(std::move(backend)) {
  assert(instance_ != nullptr);
}

CostCoefficients::CostCoefficients(const CostCoefficients& other,
                                   std::string backend)
    : instance_(other.instance_),
      params_(other.params_),
      backend_(std::move(backend)),
      c1_(other.c1_),
      c2_(other.c2_),
      c3_(other.c3_),
      c4_(other.c4_),
      row_start_(other.row_start_),
      row_attribute_(other.row_attribute_),
      row_c1_(other.row_c1_),
      row_c3_(other.row_c3_),
      write_attributes_(other.write_attributes_) {}

void CostCoefficients::PackRows() {
  const int num_a = instance_->num_attributes();
  const int num_t = instance_->num_transactions();
#ifndef NDEBUG
  // Evaluate() masks terms by multiplying with 0.0, and inf·0 is NaN.
  for (size_t i = 0; i < c1_.size(); ++i) {
    assert(std::isfinite(c1_[i]) && std::isfinite(c3_[i]));
  }
  for (int a = 0; a < num_a; ++a) {
    assert(std::isfinite(c2_[a]) && std::isfinite(c4_[a]));
  }
#endif
  row_start_.assign(1, 0);
  row_attribute_.clear();
  row_c1_.clear();
  row_c3_.clear();
  for (int t = 0; t < num_t; ++t) {
    for (int a : instance_->TouchedAttributesOfTransaction(t)) {
      row_attribute_.push_back(a);
      row_c1_.push_back(c1_[IdxTA(t, a)]);
      row_c3_.push_back(c3_[IdxTA(t, a)]);
    }
    row_start_.push_back(static_cast<int>(row_attribute_.size()));
  }
  write_attributes_.clear();
  for (int a = 0; a < num_a; ++a) {
    if (c2_[a] != 0.0 || c4_[a] != 0.0) write_attributes_.push_back(a);
  }
}

// The kernel reproduces, bit for bit, the branchy loops it replaced
// ("if y[a][s] then acc += c"). The rules that make that hold:
//
//  * Every accumulator sums in the old order: t ascending, then the
//    transaction's touched order; the c2/c4 terms come after, a ascending.
//    A site's load only receives terms of transactions homed on it, so
//    accumulating all S loads in one t-ascending pass keeps each load's
//    order.
//  * A term whose attribute is absent is masked to c·0.0 = ±0.0 instead of
//    skipped. x + (±0.0) == x for every x except x = −0.0, and an
//    accumulator that starts at +0.0 never becomes −0.0 under
//    round-to-nearest. Skipping the zero c2/c4 entries (write_attributes_)
//    is the same no-op.
//  * Coefficients must be finite, because inf·0 is NaN (PackRows asserts
//    it; the instance layer rejects non-finite widths, frequencies and row
//    counts).
//  * No -ffast-math and no reassociation. FMA contraction is harmless:
//    c·m is exact for m ∈ {0, 1}.
//
// The mask is written as a bool-to-double conversion on purpose: GCC
// compiles the `? 1.0 : 0.0` form as a branch, which mispredicts on
// random placements and costs most of the kernel's time.
double CostCoefficients::Evaluate(const Partitioning& partitioning,
                                  double* loads) const {
  const int num_t = instance_->num_transactions();
  double objective = 0.0;
  for (int t = 0; t < num_t; ++t) {
    const int s = partitioning.SiteOfTransaction(t);
    assert(s >= 0 && s < partitioning.num_sites());
    const TransactionRow r = row(t);
    double load = loads[s];
    for (int k = 0; k < r.size; ++k) {
      const double m =
          static_cast<double>(partitioning.HasAttribute(r.attribute[k], s));
      objective += r.c1[k] * m;
      load += r.c3[k] * m;
    }
    loads[s] = load;
  }
  const int num_s = partitioning.num_sites();
  for (int a : write_attributes_) {
    objective += c2_[a] * partitioning.ReplicaCount(a);
    for (int s = 0; s < num_s; ++s) {
      loads[s] += c4_[a] * static_cast<double>(partitioning.HasAttribute(a, s));
    }
  }
  return objective;
}

namespace {

/// Site-load scratch for one evaluation: on the stack for the usual handful
/// of sites, so the SA inner loop allocates nothing.
class LoadBuffer {
 public:
  explicit LoadBuffer(int num_sites) {
    if (num_sites <= kInline) {
      std::fill_n(inline_, num_sites, 0.0);
      data_ = inline_;
    } else {
      heap_.assign(num_sites, 0.0);
      data_ = heap_.data();
    }
  }
  LoadBuffer(const LoadBuffer&) = delete;
  LoadBuffer& operator=(const LoadBuffer&) = delete;
  double* data() { return data_; }

 private:
  static constexpr int kInline = 16;
  double inline_[kInline];
  std::vector<double> heap_;
  double* data_;
};

double MaxOf(const double* loads, int num_sites) {
  double max_load = 0.0;
  for (int s = 0; s < num_sites; ++s) max_load = std::max(max_load, loads[s]);
  return max_load;
}

}  // namespace

double CostCoefficients::Objective(const Partitioning& partitioning) const {
  LoadBuffer loads(partitioning.num_sites());
  return Evaluate(partitioning, loads.data());
}

CostBreakdown CostCoefficients::Breakdown(
    const Partitioning& partitioning) const {
  CostBreakdown breakdown;
  const Workload& workload = instance_->workload();
  // A_R: for each read query, all attributes of accessed tables found on the
  // transaction's site (single-sitedness guarantees the referenced ones are
  // there; β-siblings are charged when co-located, matching the model).
  for (int t = 0; t < instance_->num_transactions(); ++t) {
    const int s = partitioning.SiteOfTransaction(t);
    for (int a : instance_->TouchedAttributesOfTransaction(t)) {
      if (partitioning.HasAttribute(a, s)) {
        breakdown.read_access += c3_[IdxTA(t, a)];
      }
    }
  }
  // A_W: write queries write to every site holding a fraction of an accessed
  // table ("access all attributes" accounting).
  for (int a = 0; a < instance_->num_attributes(); ++a) {
    breakdown.write_access += c4_[a] * partitioning.ReplicaCount(a);
  }
  // B: write queries ship each written attribute to every replica site other
  // than their own transaction's site.
  for (int q = 0; q < instance_->num_queries(); ++q) {
    const Query& query = workload.query(q);
    if (!query.is_write()) continue;
    const int s = partitioning.SiteOfTransaction(query.transaction_id);
    for (int a : query.attributes) {
      int remote = partitioning.ReplicaCount(a) -
                   (partitioning.HasAttribute(a, s) ? 1 : 0);
      breakdown.transfer += TransferWeight(a, q) * remote;
    }
  }
  breakdown.total = breakdown.read_access + breakdown.write_access +
                    params_.p * breakdown.transfer;
  return breakdown;
}

double CostCoefficients::SiteLoad(const Partitioning& partitioning,
                                  int s) const {
  LoadBuffer loads(partitioning.num_sites());
  Evaluate(partitioning, loads.data());
  return loads.data()[s];
}

double CostCoefficients::MaxLoad(const Partitioning& partitioning) const {
  LoadBuffer loads(partitioning.num_sites());
  Evaluate(partitioning, loads.data());
  return MaxOf(loads.data(), partitioning.num_sites());
}

double CostCoefficients::ScalarizedObjective(
    const Partitioning& partitioning) const {
  LoadBuffer loads(partitioning.num_sites());
  const double objective = Evaluate(partitioning, loads.data());
  return (1.0 - params_.lambda) * objective +
         params_.lambda * MaxOf(loads.data(), partitioning.num_sites());
}

double CostCoefficients::AttributeOnSiteCost(const Partitioning& partitioning,
                                             int a, int s) const {
  double cost = c2_[a];
  for (int t = 0; t < instance_->num_transactions(); ++t) {
    if (partitioning.SiteOfTransaction(t) == s) cost += c1_[IdxTA(t, a)];
  }
  return cost;
}

}  // namespace vpart
