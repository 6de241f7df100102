// Tests for the extension modules: on-device object tracking (the task
// the paper deliberately keeps OFF the edge cache).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "vision/tracking.h"

namespace coic {
namespace {

using vision::ObjectTracker;
using vision::PatchLocation;
using vision::SceneParams;
using vision::SyntheticImage;
using vision::TrackerConfig;

// ---------------------------------------------------------------------------
// ObjectTracker
// ---------------------------------------------------------------------------

SceneParams TrackScene(double angle) {
  SceneParams params;
  params.scene_id = 77;
  params.view_angle_deg = angle;
  params.width = 96;
  params.height = 96;
  return params;
}

TEST(TrackerTest, IdenticalFramePerfectScoreZeroMotion) {
  const auto frame = SyntheticImage::Generate(TrackScene(0));
  ObjectTracker tracker(frame, {30, 30});
  const auto result = tracker.Track(frame);
  EXPECT_TRUE(result.found);
  EXPECT_NEAR(result.score, 1.0, 1e-6);
  EXPECT_EQ(result.dx, 0);
  EXPECT_EQ(result.dy, 0);
}

TEST(TrackerTest, TracksAcrossSmallViewChange) {
  const auto first = SyntheticImage::Generate(TrackScene(0));
  ObjectTracker tracker(first, {30, 30});
  const auto result = tracker.Track(SyntheticImage::Generate(TrackScene(1.5)));
  EXPECT_TRUE(result.found);
  EXPECT_GT(result.score, 0.8);
}

TEST(TrackerTest, RotationMovesOffCenterPatchTangentially) {
  // A patch left of the image center moves predominantly vertically
  // under a small camera rotation; check the recovered displacement has
  // the expected dominant axis and magnitude scale.
  const auto first = SyntheticImage::Generate(TrackScene(0));
  ObjectTracker tracker(first, {16, 44});  // centered at (24, 52): left of center
  const auto result = tracker.Track(SyntheticImage::Generate(TrackScene(5)));
  ASSERT_TRUE(result.found);
  // 5 degrees at radius ~24 px from center => arc ~2.1 px.
  EXPECT_LE(std::abs(result.dx) + std::abs(result.dy), 6);
  EXPECT_GE(std::abs(result.dx) + std::abs(result.dy), 1);
}

/// A featureless frame — the object fully occluded (hand over the lens).
SyntheticImage OccludedFrame() {
  SceneParams params;
  params.width = params.height = 96;
  return SyntheticImage::FromPixels(
      params, std::vector<float>(96 * 96, 0.5f));
}

TEST(TrackerTest, LosesTrackUnderOcclusion) {
  const auto first = SyntheticImage::Generate(TrackScene(0));
  ObjectTracker tracker(first, {30, 30});
  const auto result = tracker.Track(OccludedFrame());
  EXPECT_FALSE(result.found);
  EXPECT_LT(result.score, 0.1);
  EXPECT_EQ(tracker.lost_streak(), 1u);
  // The anchor must not move on a lost track.
  EXPECT_EQ(tracker.location(), (PatchLocation{30, 30}));
}

TEST(TrackerTest, ReanchorsAndFollowsDrift) {
  // Rotate the camera in small steps; the tracker must follow without
  // ever losing lock (template refresh absorbs appearance drift).
  ObjectTracker tracker(SyntheticImage::Generate(TrackScene(0)), {20, 40});
  for (int step = 1; step <= 8; ++step) {
    const auto result =
        tracker.Track(SyntheticImage::Generate(TrackScene(0.8 * step)));
    ASSERT_TRUE(result.found) << "lost at step " << step;
  }
  EXPECT_EQ(tracker.lost_streak(), 0u);
}

TEST(TrackerTest, LostStreakAccumulatesAndResets) {
  ObjectTracker tracker(SyntheticImage::Generate(TrackScene(0)), {30, 30});
  (void)tracker.Track(OccludedFrame());
  (void)tracker.Track(OccludedFrame());
  EXPECT_EQ(tracker.lost_streak(), 2u);
  // The object reappears where it was: lock reacquired, streak reset.
  (void)tracker.Track(SyntheticImage::Generate(TrackScene(0)));
  EXPECT_EQ(tracker.lost_streak(), 0u);
}

}  // namespace
}  // namespace coic
