// The one loop that spreads independent tasks over threads: the engine's
// concurrent finalize (decodeThreads > 1) runs on it.
#pragma once

#include <cstddef>
#include <functional>

namespace nfstrace {

/// Calls fn(i, t) once for each i in [0, n).  t names the calling thread:
/// 0 is the caller, which takes tasks too, and 1 .. threads - 1 are
/// threads started for this call; each takes the next index until none
/// is left.  With threads <= 1 (or n <= 1) every call runs inline on the
/// caller, in order.  A thread that fails to start leaves its share to
/// the threads already running and the caller.  The first exception a
/// call throws stops the later indices from starting; parallelFor joins
/// every thread it started and rethrows that exception on the caller.
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t i, std::size_t t)>& fn);

}  // namespace nfstrace
