#ifndef HDC_CORE_HDC_HPP
#define HDC_CORE_HDC_HPP

/// \file hdc.hpp
/// \brief Umbrella header: the full public API of the hdcpp core library.

#include "hdc/base/require.hpp"   // IWYU pragma: export
#include "hdc/base/rng.hpp"       // IWYU pragma: export
#include "hdc/base/version.hpp"   // IWYU pragma: export
#include "hdc/core/accumulator.hpp"      // IWYU pragma: export
#include "hdc/core/adaptive.hpp"         // IWYU pragma: export
#include "hdc/core/basis.hpp"            // IWYU pragma: export
#include "hdc/core/basis_circular.hpp"   // IWYU pragma: export
#include "hdc/core/basis_level.hpp"      // IWYU pragma: export
#include "hdc/core/basis_random.hpp"     // IWYU pragma: export
#include "hdc/core/bitops.hpp"           // IWYU pragma: export
#include "hdc/core/classifier.hpp"       // IWYU pragma: export
#include "hdc/core/composed_encoder.hpp" // IWYU pragma: export
#include "hdc/core/confidence.hpp"       // IWYU pragma: export
#include "hdc/core/feature_encoder.hpp"  // IWYU pragma: export
#include "hdc/core/hypervector.hpp"      // IWYU pragma: export
#include "hdc/core/item_memory.hpp"      // IWYU pragma: export
#include "hdc/core/multiscale_encoder.hpp"  // IWYU pragma: export
#include "hdc/core/ops.hpp"              // IWYU pragma: export
#include "hdc/core/regressor.hpp"        // IWYU pragma: export
#include "hdc/core/scalar_encoder.hpp"   // IWYU pragma: export
#include "hdc/core/scatter_code.hpp"     // IWYU pragma: export
#include "hdc/core/sequence_encoder.hpp" // IWYU pragma: export
#include "hdc/core/word_storage.hpp"     // IWYU pragma: export

#endif  // HDC_CORE_HDC_HPP
