// Every closed form of the paper's evaluation, with even- and odd-L
// variants where the paper distinguishes them. All values are leading terms
// (the o(.) corrections are what the benches measure).
#pragma once

#include <cstdint>

namespace mlvl::formulas {

/// Sec. 3.1 — k-ary n-cube, N = k^n.
double kary_area(std::uint64_t N, std::uint32_t k, std::uint32_t L);
double kary_volume(std::uint64_t N, std::uint32_t k, std::uint32_t L);

/// Sec. 4.1 — generalized hypercube, N = r^n.
double ghc_area(std::uint64_t N, std::uint32_t r, std::uint32_t L);
double ghc_volume(std::uint64_t N, std::uint32_t r, std::uint32_t L);
double ghc_max_wire(std::uint64_t N, std::uint32_t r, std::uint32_t L);
double ghc_path_wire(std::uint64_t N, std::uint32_t r, std::uint32_t L);

/// Sec. 4.2 — butterfly, N = R log2 R.
double butterfly_area(std::uint64_t N, std::uint32_t L);
double butterfly_volume(std::uint64_t N, std::uint32_t L);
double butterfly_max_wire(std::uint64_t N, std::uint32_t L);

/// Sec. 4.3 — HSN / HHN, N = r^l.
double hsn_area(std::uint64_t N, std::uint32_t L);
double hsn_volume(std::uint64_t N, std::uint32_t L);
double hsn_max_wire(std::uint64_t N, std::uint32_t L);
double hsn_path_wire(std::uint64_t N, std::uint32_t L);

/// Sec. 5.1 — hypercube, N = 2^n.
double hypercube_area(std::uint64_t N, std::uint32_t L);
double hypercube_max_wire(std::uint64_t N, std::uint32_t L);

/// Sec. 5.2 — CCC / reduced hypercube, N = n 2^n.
double ccc_area(std::uint64_t N, std::uint32_t L);

/// Sec. 5.3 — folded hypercube and enhanced cube, N = 2^n.
double folded_hypercube_area(std::uint64_t N, std::uint32_t L);
double enhanced_cube_area(std::uint64_t N, std::uint32_t L);

/// Sec. 1 claims: the reduction factors relative to the 2-layer layout.
double claim_area_factor(std::uint32_t L);      // ~ (L/2)^2
double claim_volume_factor(std::uint32_t L);    // ~ L/2
double claim_wire_factor(std::uint32_t L);      // ~ L/2

}  // namespace mlvl::formulas
