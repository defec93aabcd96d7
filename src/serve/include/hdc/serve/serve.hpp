#ifndef HDC_SERVE_SERVE_HPP
#define HDC_SERVE_SERVE_HPP

/// \file serve.hpp
/// \brief Umbrella header: the full public API of the hdc::serve subsystem.

#include "hdc/serve/batch_loop.hpp"         // IWYU pragma: export
#include "hdc/serve/local_plane.hpp"        // IWYU pragma: export
#include "hdc/serve/net_server.hpp"         // IWYU pragma: export
#include "hdc/serve/prediction_plane.hpp"   // IWYU pragma: export
#include "hdc/serve/prediction_writer.hpp"  // IWYU pragma: export
#include "hdc/serve/row_reader.hpp"         // IWYU pragma: export
#include "hdc/serve/server.hpp"             // IWYU pragma: export
#include "hdc/serve/swap_state.hpp"         // IWYU pragma: export

#endif  // HDC_SERVE_SERVE_HPP
