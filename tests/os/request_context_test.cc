#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "os/request_context.h"
#include "util/logging.h"

namespace pcon::os {
namespace {

TEST(RequestContext, CompletedHoldsInsideTheListenersAndAfter)
{
    RequestContextManager mgr;
    RequestId a = mgr.create("a", 1);
    RequestId b = mgr.create("b", 2);
    std::vector<bool> seen;
    mgr.onComplete([&](const RequestInfo &i) {
        // Still live for the listeners, and already completed.
        seen.push_back(mgr.live(i.id));
        seen.push_back(mgr.completed(i.id));
        seen.push_back(mgr.info(i.id).done);
        seen.push_back(!mgr.completed(b));
    });
    EXPECT_FALSE(mgr.completed(a));
    mgr.complete(a, 3);
    EXPECT_EQ(seen, std::vector<bool>(4, true));
    EXPECT_TRUE(mgr.completed(a));
    EXPECT_FALSE(mgr.live(a));
    EXPECT_FALSE(mgr.completed(b));
    EXPECT_TRUE(mgr.live(b));
    // Neither the null context nor an id not issued yet completed.
    EXPECT_FALSE(mgr.completed(NoRequest));
    EXPECT_FALSE(mgr.completed(b + 1));
    EXPECT_FALSE(mgr.live(b + 1));
    EXPECT_FALSE(mgr.completed(999));
    EXPECT_EQ(mgr.createdCount(), 2u);
    EXPECT_EQ(mgr.liveCount(), 1u);
}

TEST(RequestContext, InfoAfterCompletionPanics)
{
    RequestContextManager mgr;
    RequestId id = mgr.create("t", 0);
    EXPECT_EQ(mgr.info(id).type, "t");
    mgr.complete(id, 1);
    EXPECT_THROW(mgr.info(id), util::PanicError);
    EXPECT_THROW(mgr.info(id + 1), util::PanicError);
    EXPECT_THROW(mgr.complete(id + 1, 2), util::PanicError);
}

TEST(RequestContext, ListenerThatCreatesRequestsKeepsTheEraseCorrect)
{
    // Each completion spawns enough requests to rehash the table
    // while the completing request's RequestInfo is in use.
    constexpr int kSpawned = 64;
    RequestContextManager mgr;
    std::vector<RequestId> spawned;
    std::vector<std::string> types_after;
    mgr.onComplete([&](const RequestInfo &i) {
        if (i.type != "parent")
            return;
        for (int k = 0; k < kSpawned; ++k)
            spawned.push_back(mgr.create("child", i.completed));
        types_after.push_back(i.type);
    });
    std::vector<RequestId> parents;
    for (int p = 0; p < 4; ++p)
        parents.push_back(mgr.create("parent", p));
    for (RequestId id : parents)
        mgr.complete(id, 10 + static_cast<sim::SimTime>(id));

    EXPECT_EQ(types_after, std::vector<std::string>(4, "parent"));
    ASSERT_EQ(spawned.size(), 4u * kSpawned);
    for (RequestId id : parents) {
        EXPECT_FALSE(mgr.live(id));
        EXPECT_TRUE(mgr.completed(id));
    }
    for (RequestId id : spawned) {
        ASSERT_TRUE(mgr.live(id));
        EXPECT_EQ(mgr.info(id).type, "child");
        EXPECT_FALSE(mgr.completed(id));
    }
    EXPECT_EQ(mgr.liveCount(), spawned.size());
    EXPECT_EQ(mgr.createdCount(), parents.size() + spawned.size());

    // Completing the children empties the table; ids keep counting.
    for (RequestId id : spawned)
        mgr.complete(id, 100);
    EXPECT_EQ(mgr.liveCount(), 0u);
    EXPECT_EQ(mgr.createdCount(), parents.size() + spawned.size());
}

} // namespace
} // namespace pcon::os
