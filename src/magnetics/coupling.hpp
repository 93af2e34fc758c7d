// Mutual inductance between circular filaments and between whole coils.
#pragma once

#include "src/magnetics/coil.hpp"

namespace ironic::magnetics {

// Mutual inductance of two coaxial circular filaments with radii a and b
// separated axially by d (Maxwell's formula, exact). [H]
double mutual_coaxial_filaments(double a, double b, double d);

// Quadrature points per angle of the Neumann rule mutual_inductance
// applies to laterally offset filament pairs. mutual_filaments keeps one
// process-wide node table for this rule; other counts build theirs per call.
inline constexpr int kCoilQuadraturePoints = 64;

// Mutual inductance of two parallel circular filaments whose centers are
// offset axially by d and laterally by rho, via numerical integration of
// the Neumann double integral. Falls back to the exact coaxial formula
// when rho ~ 0. `quadrature_points` per angular dimension. [H]
double mutual_filaments(double a, double b, double d, double rho,
                        int quadrature_points = 96);

// Coil-to-coil mutual inductance: face-to-face separation `distance`,
// lateral misalignment `lateral_offset`, summed over all filament pairs. [H]
double mutual_inductance(const Coil& tx, const Coil& rx, double distance,
                         double lateral_offset = 0.0);

// Coupling coefficient k = M / sqrt(L1 L2) for the same arrangement.
double coupling_coefficient(const Coil& tx, const Coil& rx, double distance,
                            double lateral_offset = 0.0);

}  // namespace ironic::magnetics
