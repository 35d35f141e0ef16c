#include "analysis/formulas.hpp"

#include <cmath>

namespace mlvl::formulas {
namespace {

/// The paper's layer divisor: L^2 for even L, L^2 - 1 for odd L — the
/// asymmetric floor(L/2) * ceil(L/2) group split times 4.
double l2(std::uint32_t L) {
  return (L % 2 == 0) ? double(L) * L : double(L) * L - 1.0;
}

double dN(std::uint64_t N) { return static_cast<double>(N); }

}  // namespace

double kary_area(std::uint64_t N, std::uint32_t k, std::uint32_t L) {
  return 16.0 * dN(N) * dN(N) / (l2(L) * k * k);
}
double kary_volume(std::uint64_t N, std::uint32_t k, std::uint32_t L) {
  return kary_area(N, k, L) * L;
}

double ghc_area(std::uint64_t N, std::uint32_t r, std::uint32_t L) {
  return double(r) * r * dN(N) * dN(N) / (4.0 * l2(L));
}
double ghc_volume(std::uint64_t N, std::uint32_t r, std::uint32_t L) {
  return ghc_area(N, r, L) * L;
}
double ghc_max_wire(std::uint64_t N, std::uint32_t r, std::uint32_t L) {
  return double(r) * dN(N) / (2.0 * L);
}
double ghc_path_wire(std::uint64_t N, std::uint32_t r, std::uint32_t L) {
  return double(r) * dN(N) / L;
}

double butterfly_area(std::uint64_t N, std::uint32_t L) {
  const double lg = std::log2(dN(N));
  return 4.0 * dN(N) * dN(N) / (l2(L) * lg * lg);
}
double butterfly_volume(std::uint64_t N, std::uint32_t L) {
  return butterfly_area(N, L) * L;
}
double butterfly_max_wire(std::uint64_t N, std::uint32_t L) {
  return 2.0 * dN(N) / (L * std::log2(dN(N)));
}

double hsn_area(std::uint64_t N, std::uint32_t L) {
  return dN(N) * dN(N) / (4.0 * l2(L));
}
double hsn_volume(std::uint64_t N, std::uint32_t L) {
  return hsn_area(N, L) * L;
}
double hsn_max_wire(std::uint64_t N, std::uint32_t L) {
  return dN(N) / (2.0 * L);
}
double hsn_path_wire(std::uint64_t N, std::uint32_t L) {
  return dN(N) / L;
}

double hypercube_area(std::uint64_t N, std::uint32_t L) {
  return 16.0 * dN(N) * dN(N) / (9.0 * l2(L));
}
double hypercube_max_wire(std::uint64_t N, std::uint32_t L) {
  return 2.0 * dN(N) / (3.0 * L);
}

double ccc_area(std::uint64_t N, std::uint32_t L) {
  const double lg = std::log2(dN(N));
  return 16.0 * dN(N) * dN(N) / (9.0 * l2(L) * lg * lg);
}

double folded_hypercube_area(std::uint64_t N, std::uint32_t L) {
  return 49.0 * dN(N) * dN(N) / (9.0 * l2(L));
}
double enhanced_cube_area(std::uint64_t N, std::uint32_t L) {
  return 100.0 * dN(N) * dN(N) / (9.0 * l2(L));
}

double claim_area_factor(std::uint32_t L) { return l2(L) / 4.0; }
double claim_volume_factor(std::uint32_t L) { return L / 2.0; }
double claim_wire_factor(std::uint32_t L) { return L / 2.0; }

}  // namespace mlvl::formulas
