#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "../temp_path.h"
#include "core/model_store.h"
#include "util/logging.h"

namespace pcon::core {
namespace {

LinearPowerModel
sampleModel(ModelKind kind = ModelKind::WithChipShare)
{
    LinearPowerModel model(kind);
    model.setIdleW(26.1);
    model.setCoefficient(Metric::Core, 8.275);
    model.setCoefficient(Metric::Ins, 1.55);
    model.setCoefficient(Metric::Float, 2.0);
    model.setCoefficient(Metric::Cache, 69.5);
    model.setCoefficient(Metric::Mem, 205.125);
    model.setCoefficient(Metric::ChipShare, 5.6);
    model.setCoefficient(Metric::Disk, 1.7);
    model.setCoefficient(Metric::Net, 5.8);
    return model;
}

TEST(ModelStore, RoundTripsExactly)
{
    LinearPowerModel original = sampleModel();
    std::stringstream buffer;
    saveModel(original, buffer);
    LinearPowerModel loaded = loadModel(buffer);
    EXPECT_EQ(loaded.kind(), original.kind());
    EXPECT_DOUBLE_EQ(loaded.idleW(), original.idleW());
    for (std::size_t i = 0; i < NumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        EXPECT_DOUBLE_EQ(loaded.coefficient(m),
                         original.coefficient(m))
            << Metrics::name(m);
    }
}

TEST(ModelStore, RoundTripsCoreOnlyKind)
{
    LinearPowerModel original = sampleModel(ModelKind::CoreEventsOnly);
    std::stringstream buffer;
    saveModel(original, buffer);
    LinearPowerModel loaded = loadModel(buffer);
    EXPECT_EQ(loaded.kind(), ModelKind::CoreEventsOnly);
    EXPECT_FALSE(loaded.usesMetric(Metric::ChipShare));
}

TEST(ModelStore, FileRoundTrip)
{
    std::string path = testTempPath(".txt");
    saveModel(sampleModel(), path);
    LinearPowerModel loaded = loadModelFile(path);
    EXPECT_DOUBLE_EQ(loaded.idleW(), 26.1);
    EXPECT_DOUBLE_EQ(loaded.coefficient(Metric::Mem), 205.125);
    std::remove(path.c_str());
}

TEST(ModelStore, RejectsMalformedInput)
{
    std::stringstream bad_magic("nonsense v1\nkind=chipshare\n");
    EXPECT_THROW(loadModel(bad_magic), util::FatalError);

    std::stringstream bad_version("pcon-power-model v9\n");
    EXPECT_THROW(loadModel(bad_version), util::FatalError);

    std::stringstream bad_kind(
        "pcon-power-model v1\nkind=quadratic\n");
    EXPECT_THROW(loadModel(bad_kind), util::FatalError);

    std::stringstream bad_metric(
        "pcon-power-model v1\nkind=chipshare\nwarp=3\n");
    EXPECT_THROW(loadModel(bad_metric), util::FatalError);

    std::stringstream bad_value(
        "pcon-power-model v1\nkind=chipshare\ncore=abc\n");
    EXPECT_THROW(loadModel(bad_value), util::FatalError);

    std::stringstream no_kind("pcon-power-model v1\ncore=3\n");
    EXPECT_THROW(loadModel(no_kind), util::FatalError);

    std::stringstream no_equals(
        "pcon-power-model v1\nkind=chipshare\ncore 3\n");
    EXPECT_THROW(loadModel(no_equals), util::FatalError);
}

TEST(ModelStore, MissingFileIsFatal)
{
    EXPECT_THROW(loadModelFile("/nonexistent/model.txt"),
                 util::FatalError);
    EXPECT_THROW(saveModel(sampleModel(), "/nonexistent/model.txt"),
                 util::FatalError);
}

} // namespace
} // namespace pcon::core
