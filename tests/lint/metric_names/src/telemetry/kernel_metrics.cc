// Instruments registered in src/: one name follows the [a-z0-9_.]+
// grammar and one does not. Only the second must be reported.
namespace pcon::telemetry {

void registerKernelMetrics(Registry &registry)
{
    registry.counter("kernel.context_switches");
    registry.counter("Kernel Switches");
}

}  // namespace pcon::telemetry
