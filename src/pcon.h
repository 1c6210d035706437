/**
 * @file
 * Umbrella header: the full public API of the power-containers
 * reproduction. Include this (and link against the `pcon` CMake
 * target) to use everything; include individual module headers for
 * faster builds.
 */

#ifndef PCON_PCON_H
#define PCON_PCON_H

// Simulation substrate.
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/time.h"

// Simulated hardware.
#include "hw/activity.h"
#include "hw/config.h"
#include "hw/counters.h"
#include "hw/machine.h"
#include "hw/power_meter.h"

// Simulated operating system.
#include "os/device.h"
#include "os/hooks.h"
#include "os/kernel.h"
#include "os/request_context.h"
#include "os/socket.h"
#include "os/task.h"

// The power-containers facility (the paper's contribution).
#include "core/alignment.h"
#include "core/anomaly.h"
#include "core/calibration.h"
#include "core/conditioning.h"
#include "core/container.h"
#include "core/container_manager.h"
#include "core/distribution.h"
#include "core/energy_quota.h"
#include "core/metrics.h"
#include "core/model_store.h"
#include "core/power_model.h"
#include "core/prediction.h"
#include "core/profiles.h"
#include "core/recalibration.h"

// Correctness auditing (contracts + runtime invariant checks).
#include "audit/invariant_auditor.h"

// Deterministic fault injection.
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"

// Telemetry: metrics registry, periodic sampling, Perfetto export,
// and self-measured hook overhead.
#include "telemetry/instrumentation.h"
#include "telemetry/perfetto.h"
#include "telemetry/registry.h"
#include "telemetry/sampler.h"

// Causal request-span tracing with per-span energy attribution.
#include "trace/export.h"
#include "trace/span.h"
#include "trace/span_json.h"
#include "trace/span_tracer.h"

// Live introspection plane: incremental energy indices, trace
// reports, the structured event journal, and SLO/anomaly watchdogs.
#include "obs/energy_index.h"
#include "obs/feeds.h"
#include "obs/journal.h"
#include "obs/report.h"
#include "obs/watchdog.h"

// Workloads and experiment harnesses.
#include "workloads/app.h"
#include "workloads/apps.h"
#include "workloads/client.h"
#include "workloads/cluster.h"
#include "workloads/event_loop_app.h"
#include "workloads/experiment.h"
#include "workloads/microbench.h"

// Utilities.
#include "linalg/least_squares.h"
#include "linalg/matrix.h"
#include "util/audit.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/stats.h"

#endif // PCON_PCON_H
