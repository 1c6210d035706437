// An example registering an instrument under a name outside the
// grammar. Must be reported.
int main()
{
    Registry registry;
    registry.histogram("Latency MS", {1.0, 10.0});
    return 0;
}
