// A test registering an instrument under a name outside the grammar.
// Must be reported: names are checked in tests/ too.
TEST(Registry, CountsAdds)
{
    Registry registry;
    registry.gauge("queue-depth").set(3.0);
}
