#ifndef ISLA_STATS_DISTRIBUTION_H_
#define ISLA_STATS_DISTRIBUTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace isla {
namespace stats {

/// A univariate distribution that supports *counter-based* sampling: the
/// i-th draw is a pure function of (seed, i). This gives generator-backed
/// storage blocks O(1) random access into arbitrarily large virtual data
/// sets — the substitution that lets this repo run the paper's 10¹²-row
/// experiments without materializing a terabyte (see DESIGN.md §3).
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// The i-th deterministic draw under `seed`. The default implementation
  /// converts a counter-based hash into a uniform in (0,1) and applies
  /// Quantile(); mixtures override this to consume two hash streams.
  virtual double Sample(uint64_t seed, uint64_t index) const;

  /// Inverse CDF at u in (0,1). Mixtures resolve it numerically.
  virtual double Quantile(double u) const = 0;

  /// Population mean.
  virtual double Mean() const = 0;

  /// Population standard deviation.
  virtual double StdDev() const = 0;

  /// Human-readable name used in experiment logs.
  virtual std::string Name() const = 0;

  /// Content identity for the scan scheduler's in-flight dedup and its
  /// pilot/result caches: two distributions with equal non-zero fingerprints
  /// must produce identical Sample(seed, i) streams. Implementations hash
  /// their exact parameter bits — never the Name() text, whose default
  /// stream formatting rounds to 6 significant digits and would alias
  /// nearby parameters. Returning 0 opts out: blocks backed by such a
  /// distribution are treated as unique and never share scans or cache
  /// entries, the safe default for subclasses that do not override.
  virtual uint64_t Fingerprint() const { return 0; }
};

/// N(mu, sigma²).
class NormalDistribution : public Distribution {
 public:
  NormalDistribution(double mu, double sigma);

  double Quantile(double u) const override;
  double Mean() const override { return mu_; }
  double StdDev() const override { return sigma_; }
  std::string Name() const override;
  uint64_t Fingerprint() const override;

 private:
  double mu_;
  double sigma_;
};

/// Exponential with rate gamma: density γe^{−γx}, mean 1/γ (paper §VIII-E).
class ExponentialDistribution : public Distribution {
 public:
  explicit ExponentialDistribution(double gamma);

  double Quantile(double u) const override;
  double Mean() const override { return 1.0 / gamma_; }
  double StdDev() const override { return 1.0 / gamma_; }
  std::string Name() const override;
  uint64_t Fingerprint() const override;

 private:
  double gamma_;
};

/// Uniform on [lo, hi] (paper §VIII-E, Table VII uses [1, 199]).
class UniformDistribution : public Distribution {
 public:
  UniformDistribution(double lo, double hi);

  double Quantile(double u) const override;
  double Mean() const override { return 0.5 * (lo_ + hi_); }
  double StdDev() const override;
  std::string Name() const override;
  uint64_t Fingerprint() const override;

 private:
  double lo_;
  double hi_;
};

/// Lognormal: exp(N(mu_log, sigma_log²)). Used to model right-skewed
/// real-world columns (salary, trip distance).
class LognormalDistribution : public Distribution {
 public:
  LognormalDistribution(double mu_log, double sigma_log);

  double Quantile(double u) const override;
  double Mean() const override;
  double StdDev() const override;
  std::string Name() const override;
  uint64_t Fingerprint() const override;

 private:
  double mu_log_;
  double sigma_log_;
};

/// Uniform over the integer keys {0, 1, ..., cardinality−1}, emitted as
/// doubles. The generator column of choice for GROUP BY keys: a virtual
/// table gains a group column whose every row is reproducible from
/// (seed, index) and whose cardinality is bounded by construction.
class DiscreteUniformDistribution : public Distribution {
 public:
  explicit DiscreteUniformDistribution(uint64_t cardinality);

  double Quantile(double u) const override;
  double Mean() const override;
  double StdDev() const override;
  std::string Name() const override;
  uint64_t Fingerprint() const override;

  uint64_t cardinality() const { return cardinality_; }

 private:
  uint64_t cardinality_;
};

/// Degenerate point mass at `value`; building block for clustered mixtures
/// (the TLC trip data's "too big and too small values highly clustered").
class ConstantDistribution : public Distribution {
 public:
  explicit ConstantDistribution(double value) : value_(value) {}

  double Quantile(double) const override { return value_; }
  double Mean() const override { return value_; }
  double StdDev() const override { return 0.0; }
  std::string Name() const override;
  uint64_t Fingerprint() const override;

 private:
  double value_;
};

/// Finite mixture Σ wᵢ·Dᵢ. Sampling consumes two hash streams (component
/// pick + component draw); Quantile() is resolved by bisection on the mixture
/// CDF approximated from component quantiles, good enough for boundary math
/// in tests (not used on the hot path).
class MixtureDistribution : public Distribution {
 public:
  struct Component {
    double weight;
    std::shared_ptr<const Distribution> dist;
  };

  explicit MixtureDistribution(std::vector<Component> components);

  double Sample(uint64_t seed, uint64_t index) const override;
  double Quantile(double u) const override;
  double Mean() const override;
  double StdDev() const override;
  std::string Name() const override;
  uint64_t Fingerprint() const override;

 private:
  std::vector<Component> components_;  // weights normalized to sum 1
  std::vector<double> cumulative_;     // prefix sums of weights
};

}  // namespace stats
}  // namespace isla

#endif  // ISLA_STATS_DISTRIBUTION_H_
