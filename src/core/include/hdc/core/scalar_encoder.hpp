#ifndef HDC_CORE_SCALAR_ENCODER_HPP
#define HDC_CORE_SCALAR_ENCODER_HPP

/// \file scalar_encoder.hpp
/// \brief Invertible scalar-to-hypervector encoders (Sections 2.3, 3.2).
///
/// phi_L maps a real number to the basis vector of the nearest grid point
/// xi_i placed evenly over [lo, hi] (Section 3.2); the inverse map — needed
/// for regression labels — finds the nearest basis vector of a query and
/// returns its grid point.  `CircularScalarEncoder` (Section 5) does the
/// same on a periodic domain, where grid point m wraps back to 0.

#include <memory>

#include "hdc/core/basis.hpp"

namespace hdc {

/// Interface shared by all scalar encoders, so feature encoders and models
/// can mix linear and circular value encodings.
class ScalarEncoder {
 public:
  virtual ~ScalarEncoder() = default;

  ScalarEncoder() = default;
  ScalarEncoder(const ScalarEncoder&) = default;
  ScalarEncoder& operator=(const ScalarEncoder&) = default;
  ScalarEncoder(ScalarEncoder&&) = default;
  ScalarEncoder& operator=(ScalarEncoder&&) = default;

  /// phi: value -> basis hypervector of the nearest grid point, as a
  /// zero-copy view into the encoder's basis arena (valid for the lifetime
  /// of the encoder).
  [[nodiscard]] virtual HypervectorView encode(double value) const = 0;

  /// Grid index of the nearest grid point for \p value.
  [[nodiscard]] virtual std::size_t index_of(double value) const = 0;

  /// The represented value of grid index \p index.
  /// \throws std::invalid_argument if out of range.
  [[nodiscard]] virtual double value_of(std::size_t index) const = 0;

  /// phi^{-1}: nearest-basis-vector cleanup followed by value_of.
  [[nodiscard]] virtual double decode(HypervectorView query) const = 0;

  /// Whether decode() is value_of() of the query's nearest basis() row
  /// (lowest index on ties), so a caller that already holds the query's
  /// distances to basis() can decode from their argmin instead of sweeping
  /// again.  The multi-scale encoder decodes against its bound arena and
  /// says false.
  [[nodiscard]] virtual bool decodes_on_basis() const noexcept {
    return true;
  }

  /// The underlying basis set.
  [[nodiscard]] virtual const Basis& basis() const noexcept = 0;

  /// Number of grid points m.
  [[nodiscard]] std::size_t size() const noexcept { return basis().size(); }

  /// Hypervector dimensionality d.
  [[nodiscard]] std::size_t dimension() const noexcept {
    return basis().dimension();
  }
};

/// Evenly spaced grid over a closed interval [lo, hi]; values are clamped to
/// the interval before quantization.  Works with any basis family — pairing
/// it with a level basis gives the paper's real-number encoding, pairing it
/// with a random basis gives the uncorrelated baseline of the experiments.
class LinearScalarEncoder final : public ScalarEncoder {
 public:
  /// \throws std::invalid_argument if lo >= hi or the basis has fewer than 2
  /// vectors.
  LinearScalarEncoder(Basis basis, double lo, double hi);

  [[nodiscard]] HypervectorView encode(double value) const override;
  [[nodiscard]] std::size_t index_of(double value) const override;
  [[nodiscard]] double value_of(std::size_t index) const override;
  [[nodiscard]] double decode(HypervectorView query) const override;
  [[nodiscard]] const Basis& basis() const noexcept override { return basis_; }

  [[nodiscard]] double low() const noexcept { return lo_; }
  [[nodiscard]] double high() const noexcept { return hi_; }

 private:
  Basis basis_;
  double lo_;
  double hi_;
  double step_;
};

/// Evenly spaced grid over a periodic domain [0, period); grid point i
/// represents angle i * period / m and indices wrap modulo m.  Pairing it
/// with a circular basis gives the paper's circular-data encoding.
class CircularScalarEncoder final : public ScalarEncoder {
 public:
  /// \throws std::invalid_argument if period <= 0 or the basis has fewer
  /// than 2 vectors.
  explicit CircularScalarEncoder(Basis basis, double period);

  [[nodiscard]] HypervectorView encode(double value) const override;
  [[nodiscard]] std::size_t index_of(double value) const override;
  [[nodiscard]] double value_of(std::size_t index) const override;
  [[nodiscard]] double decode(HypervectorView query) const override;
  [[nodiscard]] const Basis& basis() const noexcept override { return basis_; }

  [[nodiscard]] double period() const noexcept { return period_; }

 private:
  Basis basis_;
  double period_;
};

/// Convenience deep-copyable handle used where encoders are shared.
using ScalarEncoderPtr = std::shared_ptr<const ScalarEncoder>;

}  // namespace hdc

#endif  // HDC_CORE_SCALAR_ENCODER_HPP
