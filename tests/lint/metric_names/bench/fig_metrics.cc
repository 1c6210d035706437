// A bench program registering an instrument under a name outside the
// grammar. Must be reported.
void recordFigure(Registry &registry)
{
    registry.counter("fig.Requests").add(1);
}
