#include "hdc/serve/server.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/serve/batch_loop.hpp"
#include "hdc/serve/local_plane.hpp"

namespace hdc::serve {

Server::Server(io::Pipeline pipeline, ServerOptions options,
               runtime::ThreadPoolPtr pool)
    : Server(std::make_unique<LocalPlane>(
                 std::make_shared<const ServingState>(std::move(pipeline), 0,
                                                      std::string()),
                 options.num_threads, io::MappingOptions{}, std::move(pool)),
             nullptr, options) {}

Server::Server(PredictionPlane& plane, ServerOptions options)
    : Server(nullptr, &plane, options) {}

Server::Server(std::unique_ptr<PredictionPlane> owned, PredictionPlane* plane,
               ServerOptions options)
    : owned_(std::move(owned)),
      plane_(plane != nullptr ? plane : owned_.get()),
      options_(options) {
  if (options_.batch_size == 0) {
    throw std::invalid_argument("Server: batch_size must be > 0");
  }
}

Server::Stats Server::run(RowReader& reader, PredictionWriter& writer) const {
  using clock = BatchLoop::clock;
  ServeCounters counters;
  BatchLoop loop(*plane_, reader, writer, options_.batch_size, counters);
  const clock::time_point start = clock::now();
  try {
    while (true) {
      // Bounded-staleness guard: with a flush interval configured, pending
      // rows are flushed *before* a read that may block — either their
      // deadline has already passed, or the stream has nothing buffered
      // and the next getline could stall unboundedly.
      if (loop.pending() && options_.flush_interval.count() > 0 &&
          (clock::now() - loop.oldest() >= options_.flush_interval ||
           reader.may_block())) {
        loop.flush();
      }
      if (!loop.read_next()) {
        break;
      }
    }
    loop.flush();
  } catch (PlaneError& error) {
    // Every batch before the failed one is already written and flushed;
    // tell the consumer exactly where the stream stopped.
    error.append(" (at input line " + std::to_string(reader.line_number()) +
                 "; " + std::to_string(loop.rows()) +
                 " rows already answered)");
    throw;
  }
  return {counters.rows.load(), counters.batches.load(),
          std::chrono::duration<double>(clock::now() - start).count()};
}

}  // namespace hdc::serve
