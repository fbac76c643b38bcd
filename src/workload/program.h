/**
 * @file
 * The workload library's name for an endless task.
 *
 * Every task is a sim::Task walking a phase list; a CT-Gen or MB-Gen
 * thread is the one-phase endless kind, built as
 * `EndlessTask(name, demand)`. Generator code names it through this
 * alias.
 */

#ifndef LITMUS_WORKLOAD_PROGRAM_H
#define LITMUS_WORKLOAD_PROGRAM_H

#include "sim/task.h"

namespace litmus::workload
{

/** A task of one endless phase: sim::Task(name, demand). */
using EndlessTask = sim::Task;

} // namespace litmus::workload

#endif // LITMUS_WORKLOAD_PROGRAM_H
