// Forwarding header: `SerialScheduler` is the old name of the one event
// scheduler, kept only for perfbench/cpp/traced_run. The alias goes when
// ROADMAP item 1 deletes traced_run.
#pragma once

#include "sim/scheduler.h"

namespace propsim {

using SerialScheduler = Scheduler;

}  // namespace propsim
