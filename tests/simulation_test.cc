#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "simulation/city.h"
#include "simulation/generator.h"
#include "simulation/ground_truth.h"
#include "simulation/recorded_corpus.h"
#include "video/metrics.h"

namespace visualroad::sim {
namespace {

// --- Weather ---

TEST(WeatherTest, TwelvePresetsWithDistinctNames) {
  std::set<std::string> names;
  for (int i = 0; i < kWeatherCount; ++i) {
    const Weather& weather = WeatherPreset(i);
    EXPECT_EQ(weather.id, i);
    names.insert(weather.name);
    EXPECT_GE(weather.cloud_cover, 0.0);
    EXPECT_LE(weather.cloud_cover, 1.0);
    EXPECT_GE(weather.precipitation, 0.0);
    EXPECT_LE(weather.precipitation, 1.0);
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kWeatherCount));
}

TEST(WeatherTest, SunsetPresetsHaveLowSun) {
  EXPECT_LT(WeatherPreset(7).sun_altitude_deg, 20.0);   // ClearSunset.
  EXPECT_GT(WeatherPreset(0).sun_altitude_deg, 45.0);   // ClearNoon.
}

// --- Road network ---

TEST(RoadNetworkTest, RoadCentrelineClassifiesAsRoad) {
  RoadNetwork roads(Town::kTown01);
  for (double line : roads.road_lines()) {
    // A point on the road but away from intersections and dash markings.
    EXPECT_EQ(roads.Classify({line + 3.0, 17.0}), SurfaceKind::kRoad);
  }
}

TEST(RoadNetworkTest, IntersectionWhereRoadsCross) {
  RoadNetwork roads(Town::kTown01);
  double a = roads.road_lines()[0], b = roads.road_lines()[1];
  EXPECT_EQ(roads.Classify({a, b}), SurfaceKind::kIntersection);
  EXPECT_TRUE(roads.InIntersection({a, b}));
}

TEST(RoadNetworkTest, SidewalkBesideRoad) {
  RoadNetwork roads(Town::kTown01);
  double line = roads.road_lines()[0];
  double sidewalk = line + (roads.road_half_width() + roads.sidewalk_outer()) / 2.0;
  EXPECT_EQ(roads.Classify({sidewalk, 17.0}), SurfaceKind::kSidewalk);
}

TEST(RoadNetworkTest, GrassFarFromRoads) {
  RoadNetwork roads(Town::kTown01);
  EXPECT_EQ(roads.Classify({80.0, 80.0}), SurfaceKind::kGrass);
}

TEST(RoadNetworkTest, LaneMarkingsDashAlongRoads) {
  RoadNetwork roads(Town::kTown01);
  double line = roads.road_lines()[0];
  bool saw_marking = false, saw_gap = false;
  for (double along = 10.0; along < 30.0; along += 0.5) {
    SurfaceKind kind = roads.Classify({line, along});
    if (kind == SurfaceKind::kLaneMarking) saw_marking = true;
    if (kind == SurfaceKind::kRoad) saw_gap = true;
  }
  EXPECT_TRUE(saw_marking);
  EXPECT_TRUE(saw_gap);
}

TEST(RoadNetworkTest, TownsHaveDifferentLatticeDensity) {
  EXPECT_GT(RoadNetwork(Town::kTown01).road_lines().size(),
            RoadNetwork(Town::kTown02).road_lines().size());
}

TEST(RoadNetworkTest, WrapIsToroidal) {
  RoadNetwork roads(Town::kTown01);
  double size = roads.tile_size();
  EXPECT_NEAR(roads.Wrap(size + 5.0), 5.0, 1e-9);
  EXPECT_NEAR(roads.Wrap(-5.0), size - 5.0, 1e-9);
  EXPECT_NEAR(roads.Wrap(17.0), 17.0, 1e-9);
}

TEST(RoadNetworkTest, NearestRoadLineSnapsCorrectly) {
  RoadNetwork roads(Town::kTown01);
  EXPECT_DOUBLE_EQ(roads.NearestRoadLine(45.0), 40.0);
  EXPECT_DOUBLE_EQ(roads.NearestRoadLine(100.0), 120.0);
}

// --- Tile pool ---

TEST(TilePoolTest, SeventyTwoDistinctArchetypes) {
  std::set<std::tuple<int, int, int>> combos;
  for (int i = 0; i < kTilePoolSize; ++i) {
    TileArchetype archetype = TilePoolEntry(i);
    combos.insert({static_cast<int>(archetype.town), archetype.weather_id,
                   static_cast<int>(archetype.density)});
  }
  EXPECT_EQ(combos.size(), static_cast<size_t>(kTilePoolSize));
}

TEST(TilePoolTest, DensityDrivesPopulationCounts) {
  EXPECT_LT(VehicleCount(Density::kLow), VehicleCount(Density::kRushHour));
  EXPECT_LT(PedestrianCount(Density::kMedium), PedestrianCount(Density::kRushHour));
}

// --- Tile ---

TEST(TileTest, PopulationMatchesDensity) {
  Tile tile(TilePoolEntry(2), 77);  // Density id 2 = rush hour.
  EXPECT_EQ(static_cast<int>(tile.vehicles().size()),
            VehicleCount(Density::kRushHour));
  EXPECT_EQ(static_cast<int>(tile.pedestrians().size()),
            PedestrianCount(Density::kRushHour));
  EXPECT_FALSE(tile.buildings().empty());
}

TEST(TileTest, SameSeedSameTile) {
  Tile a(TilePoolEntry(5), 123), b(TilePoolEntry(5), 123);
  ASSERT_EQ(a.vehicles().size(), b.vehicles().size());
  for (size_t i = 0; i < a.vehicles().size(); ++i) {
    EXPECT_EQ(a.vehicles()[i].plate, b.vehicles()[i].plate);
    EXPECT_DOUBLE_EQ(a.vehicles()[i].position.x, b.vehicles()[i].position.x);
  }
  // Determinism must survive stepping.
  for (int s = 0; s < 30; ++s) {
    a.Step(1.0 / 15);
    b.Step(1.0 / 15);
  }
  for (size_t i = 0; i < a.vehicles().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.vehicles()[i].position.x, b.vehicles()[i].position.x);
    EXPECT_DOUBLE_EQ(a.vehicles()[i].position.y, b.vehicles()[i].position.y);
  }
}

TEST(TileTest, DifferentSeedsDifferentPlates) {
  Tile a(TilePoolEntry(5), 1), b(TilePoolEntry(5), 2);
  bool any_differ = false;
  for (size_t i = 0; i < a.vehicles().size(); ++i) {
    if (a.vehicles()[i].plate != b.vehicles()[i].plate) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(TileTest, PlatesAreSixAlphanumerics) {
  Tile tile(TilePoolEntry(8), 9);
  for (const Vehicle& vehicle : tile.vehicles()) {
    ASSERT_EQ(vehicle.plate.size(), 6u);
    for (char c : vehicle.plate) {
      EXPECT_TRUE((c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) << c;
    }
  }
}

TEST(TileTest, VehiclesStayOnRoads) {
  Tile tile(TilePoolEntry(1), 31);
  for (int s = 0; s < 200; ++s) {
    tile.Step(1.0 / 15);
    for (const Vehicle& vehicle : tile.vehicles()) {
      EXPECT_TRUE(tile.roads().OnRoad(vehicle.position))
          << "vehicle " << vehicle.id << " at (" << vehicle.position.x << ", "
          << vehicle.position.y << ") after step " << s;
    }
  }
}

TEST(TileTest, VehiclesActuallyMove) {
  Tile tile(TilePoolEntry(1), 32);
  Vec2 before = tile.vehicles()[0].position;
  for (int s = 0; s < 15; ++s) tile.Step(1.0 / 15);
  Vec2 after = tile.vehicles()[0].position;
  EXPECT_GT((after - before).Norm(), 1.0);
}

TEST(TileTest, PedestriansStayNearSidewalks) {
  Tile tile(TilePoolEntry(4), 33);
  for (int s = 0; s < 100; ++s) tile.Step(1.0 / 15);
  for (const Pedestrian& pedestrian : tile.pedestrians()) {
    SurfaceKind kind = tile.roads().Classify(pedestrian.position);
    EXPECT_TRUE(kind == SurfaceKind::kSidewalk || kind == SurfaceKind::kRoad ||
                kind == SurfaceKind::kIntersection || kind == SurfaceKind::kGrass);
  }
}

TEST(TileTest, BuildingsDoNotOverlapRoads) {
  Tile tile(TilePoolEntry(0), 34);
  for (const Building& building : tile.buildings()) {
    // Sample the footprint corners; none should be on a road.
    for (Vec2 corner : {building.min_corner, building.max_corner,
                        Vec2{building.min_corner.x, building.max_corner.y},
                        Vec2{building.max_corner.x, building.min_corner.y}}) {
      EXPECT_FALSE(tile.roads().OnRoad(corner))
          << "building corner on road at (" << corner.x << ", " << corner.y << ")";
    }
  }
}

TEST(TileTest, TimeAdvances) {
  Tile tile(TilePoolEntry(0), 35);
  tile.Step(0.5);
  tile.Step(0.25);
  EXPECT_DOUBLE_EQ(tile.time(), 0.75);
}

// --- Camera ---

TEST(CameraTest, ProjectAndRayAreInverse) {
  Camera camera({320, 180, 75.0}, {{10, 20, 12}, 0.8, -0.4});
  Vec3 world{40, 35, 2};
  auto projected = camera.Project(world);
  ASSERT_TRUE(projected.has_value());
  Vec3 ray = camera.PixelRay(projected->x, projected->y);
  Vec3 recovered = camera.pose().position + ray * ((world - camera.pose().position).Norm());
  EXPECT_NEAR(recovered.x, world.x, 0.05);
  EXPECT_NEAR(recovered.y, world.y, 0.05);
  EXPECT_NEAR(recovered.z, world.z, 0.05);
}

TEST(CameraTest, PointBehindCameraDoesNotProject) {
  Camera camera({320, 180, 60.0}, {{0, 0, 5}, 0.0, 0.0});  // Looking along +x.
  EXPECT_FALSE(camera.Project({-10, 0, 5}).has_value());
  EXPECT_TRUE(camera.Project({10, 0, 5}).has_value());
}

TEST(CameraTest, CentrePixelLooksAlongForward) {
  Camera camera({320, 180, 60.0}, {{0, 0, 5}, 1.1, -0.2});
  Vec3 ray = camera.PixelRay(160.0, 90.0);
  EXPECT_NEAR(ray.Dot(camera.forward()), 1.0, 1e-9);
}

TEST(CameraTest, BasisIsOrthonormal) {
  Camera camera({64, 64, 90.0}, {{1, 2, 3}, 2.3, 0.5});
  EXPECT_NEAR(camera.forward().Norm(), 1.0, 1e-12);
  EXPECT_NEAR(camera.right().Norm(), 1.0, 1e-12);
  EXPECT_NEAR(camera.up().Norm(), 1.0, 1e-12);
  EXPECT_NEAR(camera.forward().Dot(camera.right()), 0.0, 1e-12);
  EXPECT_NEAR(camera.forward().Dot(camera.up()), 0.0, 1e-12);
  EXPECT_NEAR(camera.right().Dot(camera.up()), 0.0, 1e-12);
}

TEST(CameraTest, ProjectedDepthIsForwardDistance) {
  Camera camera({320, 180, 60.0}, {{0, 0, 0}, 0.0, 0.0});
  auto projected = camera.Project({25, 3, 1});
  ASSERT_TRUE(projected.has_value());
  EXPECT_NEAR(projected->depth, 25.0, 1e-9);
}

TEST(CameraTest, PanoramicRigCoversFourYaws) {
  PanoramicRig rig;
  rig.position = {5, 5, 8};
  rig.base_yaw = 0.3;
  auto faces = rig.Faces();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(WrapAngle(faces[static_cast<size_t>(i)].pose().yaw -
                          (0.3 + i * kPi / 2.0)),
                0.0, 1e-9);
  }
  // 120-degree FOVs at 90-degree spacing: any horizontal direction must be
  // within 60 degrees of some face axis.
  for (double angle = 0; angle < 2 * kPi; angle += 0.05) {
    Vec3 direction{std::cos(angle), std::sin(angle), 0};
    double best = -1;
    for (const Camera& face : faces) {
      best = std::max(best, direction.Dot(face.forward()));
    }
    EXPECT_GT(best, std::cos(DegToRad(60.0)) - 1e-9);
  }
}

// --- Rasterizer ---

TEST(RasterizerTest, TriangleWritesColorDepthAndId) {
  Framebuffer fb(64, 64);
  Camera camera({64, 64, 60.0}, {{0, 0, 0}, 0.0, 0.0});
  Rasterizer raster(fb, camera);
  // A large triangle 10m ahead, facing the camera.
  RasterVertex a{{10, 5, -5}, 0, 0}, b{{10, -5, -5}, 1, 0}, c{{10, 0, 5}, 0.5, 1};
  raster.DrawTriangle(a, b, c, [](double, double) { return video::Rgb{255, 0, 0}; },
                      42);
  size_t centre = fb.Index(32, 32);
  EXPECT_EQ(fb.ids[centre], 42);
  EXPECT_NEAR(fb.depth[centre], 10.0, 0.1);
  EXPECT_EQ(fb.color.Pixel(32, 32)[0], 255);
}

TEST(RasterizerTest, NearerTriangleWins) {
  Framebuffer fb(64, 64);
  Camera camera({64, 64, 60.0}, {{0, 0, 0}, 0.0, 0.0});
  Rasterizer raster(fb, camera);
  auto red = [](double, double) { return video::Rgb{255, 0, 0}; };
  auto blue = [](double, double) { return video::Rgb{0, 0, 255}; };
  RasterVertex far_tri[3] = {{{20, 8, -8}}, {{20, -8, -8}}, {{20, 0, 8}}};
  RasterVertex near_tri[3] = {{{10, 4, -4}}, {{10, -4, -4}}, {{10, 0, 4}}};
  raster.DrawTriangle(far_tri[0], far_tri[1], far_tri[2], red, 1);
  raster.DrawTriangle(near_tri[0], near_tri[1], near_tri[2], blue, 2);
  EXPECT_EQ(fb.ids[fb.Index(32, 32)], 2);
  EXPECT_EQ(fb.color.Pixel(32, 32)[2], 255);
}

TEST(RasterizerTest, TriangleBehindCameraCulled) {
  Framebuffer fb(32, 32);
  Camera camera({32, 32, 60.0}, {{0, 0, 0}, 0.0, 0.0});
  Rasterizer raster(fb, camera);
  RasterVertex a{{-5, 2, -2}}, b{{-5, -2, -2}}, c{{-5, 0, 2}};
  raster.DrawTriangle(a, b, c, [](double, double) { return video::Rgb{9, 9, 9}; }, 7);
  for (int32_t id : fb.ids) EXPECT_EQ(id, kNoEntity);
}

TEST(RasterizerTest, TriangleStraddlingNearPlaneIsClipped) {
  Framebuffer fb(32, 32);
  Camera camera({32, 32, 60.0}, {{0, 0, 0}, 0.0, 0.0});
  Rasterizer raster(fb, camera);
  // One vertex behind the camera, two ahead: must render something without
  // crashing or wrapping.
  RasterVertex a{{-2, 0, 0}}, b{{10, -6, -4}}, c{{10, 6, -4}};
  raster.DrawTriangle(a, b, c, [](double, double) { return video::Rgb{5, 5, 5}; }, 3);
  int covered = 0;
  for (int32_t id : fb.ids) {
    if (id == 3) ++covered;
  }
  EXPECT_GT(covered, 0);
}

TEST(RasterizerTest, PerspectiveCorrectUv) {
  Framebuffer fb(64, 64);
  Camera camera({64, 64, 60.0}, {{0, 0, 0}, 0.0, 0.0});
  Rasterizer raster(fb, camera);
  // A quad receding in depth: u from 0 (near, 5m) to 1 (far, 25m).
  RasterVertex quad[4] = {{{5, 0.5, -1}, 0, 0},
                          {{25, 8, -2}, 1, 0},
                          {{25, 8, 2}, 1, 1},
                          {{5, 0.5, 1}, 0, 1}};
  std::vector<double> sampled_u;
  raster.DrawQuad(
      quad,
      [&](double u, double) {
        sampled_u.push_back(u);
        return video::Rgb{static_cast<uint8_t>(u * 255), 0, 0};
      },
      1);
  ASSERT_FALSE(sampled_u.empty());
  // With perspective-correct interpolation the screen-space midpoint of the
  // quad maps to u > 0.5 (the far half is compressed).
  double max_u = *std::max_element(sampled_u.begin(), sampled_u.end());
  EXPECT_GT(max_u, 0.9);
}

TEST(RasterizerTest, CuboidBackFacesCulled) {
  Framebuffer fb(64, 64);
  Camera camera({64, 64, 60.0}, {{0, 0, 1}, 0.0, 0.0});
  Rasterizer raster(fb, camera);
  std::vector<Vec3> shaded_normals;
  raster.DrawCuboid({5, -2, 0}, {9, 2, 3},
                    [&](const Vec3& normal, double, double) {
                      shaded_normals.push_back(normal);
                      return video::Rgb{100, 100, 100};
                    },
                    11);
  // The +x face (pointing away from a camera at the origin) must never be
  // shaded.
  for (const Vec3& normal : shaded_normals) {
    EXPECT_FALSE(normal.x > 0.5);
  }
}

TEST(FramebufferTest, ClearResetsEverything) {
  Framebuffer fb(8, 8);
  fb.color.Pixel(3, 3)[0] = 200;
  fb.depth[fb.Index(3, 3)] = 1.0f;
  fb.ids[fb.Index(3, 3)] = 5;
  fb.Clear();
  EXPECT_EQ(fb.color.Pixel(3, 3)[0], 0);
  EXPECT_TRUE(std::isinf(fb.depth[fb.Index(3, 3)]));
  EXPECT_EQ(fb.ids[fb.Index(3, 3)], kNoEntity);
}

// --- Scene renderer ---

TEST(SceneRendererTest, RenderIsDeterministic) {
  Tile tile(TilePoolEntry(3), 71);
  Camera camera({96, 54, 62.0}, {{40, 30, 14}, 1.0, -0.6});
  Framebuffer a = RenderScene(tile, camera, 5, 99);
  Framebuffer b = RenderScene(tile, camera, 5, 99);
  EXPECT_EQ(a.color.data, b.color.data);
  EXPECT_EQ(a.ids, b.ids);
}

TEST(SceneRendererTest, RainyFramesDifferAcrossFrameIndices) {
  TileArchetype archetype = TilePoolEntry(0);
  archetype.weather_id = 5;  // HardRainNoon.
  Tile tile(archetype, 72);
  Camera camera({96, 54, 62.0}, {{40, 30, 14}, 1.0, -0.6});
  Framebuffer a = RenderScene(tile, camera, 1, 99);
  Framebuffer b = RenderScene(tile, camera, 2, 99);
  EXPECT_NE(a.color.data, b.color.data);
}

TEST(SceneRendererTest, VehiclesAppearInIdBuffer) {
  Tile tile(TilePoolEntry(2), 73);  // Rush hour: many vehicles.
  // Aim a camera down a road centre.
  double line = tile.roads().road_lines()[0];
  Camera camera({160, 90, 70.0}, {{line, 10.0, 12.0}, kPi / 2.0, -0.5});
  Framebuffer fb = RenderScene(tile, camera, 0, 99);
  bool saw_vehicle = false;
  for (int32_t id : fb.ids) {
    if (IsVehicleId(id)) saw_vehicle = true;
  }
  EXPECT_TRUE(saw_vehicle);
}

TEST(SceneRendererTest, SunsetDarkerThanNoon) {
  TileArchetype noon = TilePoolEntry(0);
  noon.weather_id = 0;
  TileArchetype sunset = noon;
  sunset.weather_id = 7;
  Tile noon_tile(noon, 74), sunset_tile(sunset, 74);
  Camera camera({96, 54, 62.0}, {{40, 30, 14}, 1.0, -0.5});
  Framebuffer noon_fb = RenderScene(noon_tile, camera, 0, 99);
  Framebuffer sunset_fb = RenderScene(sunset_tile, camera, 0, 99);
  auto luminance = [](const Framebuffer& fb) {
    double sum = 0;
    for (size_t i = 0; i < fb.color.data.size(); i += 3) {
      sum += 0.299 * fb.color.data[i] + 0.587 * fb.color.data[i + 1] +
             0.114 * fb.color.data[i + 2];
    }
    return sum / (fb.color.data.size() / 3.0);
  };
  EXPECT_LT(luminance(sunset_fb), luminance(noon_fb));
}

TEST(SceneRendererTest, SunDirectionMatchesAltitude) {
  Vec3 noon = SunDirection(WeatherPreset(0));
  Vec3 sunset = SunDirection(WeatherPreset(7));
  EXPECT_GT(noon.z, sunset.z);
  EXPECT_NEAR(noon.Norm(), 1.0, 1e-12);
}

TEST(SceneRendererTest, WeatherEffectsToggle) {
  TileArchetype archetype = TilePoolEntry(0);
  archetype.weather_id = 5;  // Heavy rain.
  Tile tile(archetype, 75);
  Camera camera({96, 54, 62.0}, {{40, 30, 14}, 1.0, -0.5});
  RenderOptions with, without;
  without.weather_effects = false;
  Framebuffer rain = RenderScene(tile, camera, 0, 99, with);
  Framebuffer clear = RenderScene(tile, camera, 0, 99, without);
  EXPECT_NE(rain.color.data, clear.color.data);
}

// --- Ground truth ---

TEST(GroundTruthTest, BoxesCoverVisibleVehicles) {
  Tile tile(TilePoolEntry(2), 81);
  double line = tile.roads().road_lines()[0];
  Camera camera({160, 90, 70.0}, {{line, 10.0, 12.0}, kPi / 2.0, -0.5});
  Framebuffer fb = RenderScene(tile, camera, 0, 99);
  FrameGroundTruth truth = ExtractGroundTruth(tile, camera, fb);
  // Every id present in the framebuffer should be annotated.
  std::set<int32_t> rendered_ids;
  for (int32_t id : fb.ids) {
    if (IsVehicleId(id) || IsPedestrianId(id)) rendered_ids.insert(id);
  }
  for (int32_t id : rendered_ids) {
    EXPECT_NE(truth.Find(id), nullptr) << "id " << id << " missing from GT";
  }
  // And every annotation is visible and in-frame.
  for (const GroundTruthBox& box : truth.boxes) {
    EXPECT_GT(box.visible_fraction, 0.0);
    EXPECT_LE(box.visible_fraction, 1.0);
    EXPECT_GE(box.box.x0, 0);
    EXPECT_LE(box.box.x1, 160);
  }
}

TEST(GroundTruthTest, SerializationRoundTrips) {
  std::vector<FrameGroundTruth> frames(2);
  GroundTruthBox box;
  box.entity_id = 1005;
  box.object_class = ObjectClass::kVehicle;
  box.box = {1, 2, 30, 40};
  box.visible_fraction = 0.625;
  box.plate = "AB12CD";
  box.plate_box = {5, 6, 15, 9};
  box.plate_visible = true;
  frames[0].boxes.push_back(box);
  box.entity_id = 2003;
  box.object_class = ObjectClass::kPedestrian;
  box.plate.clear();
  box.plate_visible = false;
  frames[1].boxes.push_back(box);

  auto parsed = ParseGroundTruth(SerializeGroundTruth(frames));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  const GroundTruthBox& first = (*parsed)[0].boxes[0];
  EXPECT_EQ(first.entity_id, 1005);
  EXPECT_EQ(first.plate, "AB12CD");
  EXPECT_TRUE(first.plate_visible);
  EXPECT_DOUBLE_EQ(first.visible_fraction, 0.625);
  EXPECT_EQ(first.plate_box, (RectI{5, 6, 15, 9}));
  EXPECT_EQ((*parsed)[1].boxes[0].object_class, ObjectClass::kPedestrian);
}

TEST(GroundTruthTest, TruncatedPayloadRejected) {
  std::vector<FrameGroundTruth> frames(1);
  frames[0].boxes.emplace_back();
  std::vector<uint8_t> bytes = SerializeGroundTruth(frames);
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(ParseGroundTruth(bytes).ok());
}

// --- City ---

TEST(CityTest, BuildPlacesConfiguredCameras) {
  CityConfig config;
  config.scale_factor = 3;
  config.seed = 5;
  VisualCity city = VisualCity::Build(config);
  EXPECT_EQ(city.tiles().size(), 3u);
  // 4 traffic + 4 pano faces per tile.
  EXPECT_EQ(city.cameras().size(), 3u * 8u);
  int traffic = 0, pano = 0;
  for (const CameraPlacement& camera : city.cameras()) {
    if (camera.kind == CameraKind::kTraffic) {
      ++traffic;
      EXPECT_GE(camera.pose.position.z, 10.0);
      EXPECT_LE(camera.pose.position.z, 20.0);
    } else {
      ++pano;
      EXPECT_GE(camera.pose.position.z, 5.0);
      EXPECT_LE(camera.pose.position.z, 10.0);
      EXPECT_GE(camera.pano_face, 0);
      EXPECT_LT(camera.pano_face, 4);
    }
  }
  EXPECT_EQ(traffic, 12);
  EXPECT_EQ(pano, 12);
}

TEST(CityTest, SameSeedSameCity) {
  CityConfig config;
  config.scale_factor = 2;
  config.seed = 42;
  VisualCity a = VisualCity::Build(config);
  VisualCity b = VisualCity::Build(config);
  for (size_t i = 0; i < a.cameras().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cameras()[i].pose.position.x, b.cameras()[i].pose.position.x);
    EXPECT_DOUBLE_EQ(a.cameras()[i].pose.yaw, b.cameras()[i].pose.yaw);
  }
  for (size_t i = 0; i < a.tiles().size(); ++i) {
    EXPECT_EQ(a.tiles()[i].archetype().id, b.tiles()[i].archetype().id);
  }
}

TEST(CityTest, DifferentSeedsDifferentCities) {
  CityConfig a_config, b_config;
  a_config.scale_factor = b_config.scale_factor = 4;
  a_config.seed = 1;
  b_config.seed = 2;
  VisualCity a = VisualCity::Build(a_config);
  VisualCity b = VisualCity::Build(b_config);
  bool differ = false;
  for (size_t i = 0; i < a.tiles().size(); ++i) {
    if (a.tiles()[i].archetype().id != b.tiles()[i].archetype().id) differ = true;
  }
  for (size_t i = 0; i < a.cameras().size() && !differ; ++i) {
    if (a.cameras()[i].pose.position.x != b.cameras()[i].pose.position.x) {
      differ = true;
    }
  }
  EXPECT_TRUE(differ);
}

TEST(CityTest, CamerasOfTileFilters) {
  CityConfig config;
  config.scale_factor = 2;
  VisualCity city = VisualCity::Build(config);
  auto tile0 = city.CamerasOfTile(0);
  auto tile1 = city.CamerasOfTile(1);
  EXPECT_EQ(tile0.size(), 8u);
  EXPECT_EQ(tile1.size(), 8u);
  for (const CameraPlacement* camera : tile0) EXPECT_EQ(camera->tile_index, 0);
}

// --- Generator (shared fixture: generation is the expensive step) ---

class GeneratorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityConfig config;
    config.scale_factor = 1;
    config.width = 96;
    config.height = 54;
    config.duration_seconds = 1.0;
    config.fps = 15;
    config.seed = 7;
    sim::GeneratorOptions options;
    options.codec.qp = 24;
    VisualCityGenerator generator(options);
    auto result = generator.Generate(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    dataset_ = new Dataset(std::move(result).value());
    stats_ = generator.last_stats();
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static GeneratorStats stats_;
};

Dataset* GeneratorTest::dataset_ = nullptr;
GeneratorStats GeneratorTest::stats_;

TEST_F(GeneratorTest, ProducesExpectedAssetCount) {
  // 4 traffic + 4 pano faces per tile.
  EXPECT_EQ(dataset_->assets.size(), 8u);
  EXPECT_EQ(dataset_->TrafficAssets().size(), 4u);
  EXPECT_EQ(dataset_->PanoramicGroupCount(), 1);
}

TEST_F(GeneratorTest, VideosHaveConfiguredShape) {
  for (const VideoAsset& asset : dataset_->assets) {
    EXPECT_EQ(asset.container.video.width, 96);
    EXPECT_EQ(asset.container.video.height, 54);
    EXPECT_EQ(asset.container.video.FrameCount(), 15);
    EXPECT_EQ(asset.ground_truth.size(), 15u);
  }
}

TEST_F(GeneratorTest, GroundTruthTrackMatchesInMemoryTruth) {
  const VideoAsset& asset = dataset_->assets.front();
  const video::container::MetadataTrack* track = asset.container.FindTrack("GTRU");
  ASSERT_NE(track, nullptr);
  auto parsed = ParseGroundTruth(track->payload);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), asset.ground_truth.size());
  for (size_t f = 0; f < parsed->size(); ++f) {
    EXPECT_EQ((*parsed)[f].boxes.size(), asset.ground_truth[f].boxes.size());
  }
}

TEST_F(GeneratorTest, VideosDecodeCleanly) {
  const VideoAsset& asset = dataset_->assets.front();
  auto decoded = video::codec::Decode(asset.container.video);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->FrameCount(), 15);
}

TEST_F(GeneratorTest, StatsAreConsistent) {
  EXPECT_EQ(stats_.frames_rendered, 8 * 15);
  EXPECT_GT(stats_.bytes_encoded, 0);
  EXPECT_GT(stats_.total_seconds, 0.0);
}

TEST_F(GeneratorTest, PanoramicGroupHasFourOrderedFaces) {
  auto faces = dataset_->PanoramicGroup(0);
  ASSERT_EQ(faces.size(), 4u);
  for (int f = 0; f < 4; ++f) {
    ASSERT_NE(faces[static_cast<size_t>(f)], nullptr);
    EXPECT_EQ(faces[static_cast<size_t>(f)]->camera.pano_face, f);
  }
}

/// Byte-identical, not just same-sized: every encoded frame of every asset
/// must match, and ground truth and camera order must agree.
void ExpectSameAssets(const sim::Dataset& a, const sim::Dataset& b) {
  ASSERT_EQ(a.assets.size(), b.assets.size());
  for (size_t i = 0; i < a.assets.size(); ++i) {
    const VideoAsset& sa = a.assets[i];
    const VideoAsset& sb = b.assets[i];
    EXPECT_EQ(sa.camera.camera_id, sb.camera.camera_id);
    ASSERT_EQ(sa.container.video.FrameCount(), sb.container.video.FrameCount());
    for (size_t f = 0; f < sa.container.video.frames.size(); ++f) {
      EXPECT_EQ(sa.container.video.frames[f].data,
                sb.container.video.frames[f].data)
          << "asset " << i << " frame " << f;
    }
    EXPECT_EQ(sim::SerializeGroundTruth(sa.ground_truth),
              sim::SerializeGroundTruth(sb.ground_truth))
        << "asset " << i;
  }
}

TEST(GeneratorModesTest, DistributedMatchesSingleNode) {
  CityConfig config;
  config.scale_factor = 2;
  config.width = 64;
  config.height = 36;
  config.duration_seconds = 0.5;
  config.fps = 16;
  config.seed = 11;
  sim::GeneratorOptions single, distributed;
  single.num_nodes = 1;
  distributed.num_nodes = 4;
  VisualCityGenerator a(single), b(distributed);
  auto da = a.Generate(config);
  auto db = b.Generate(config);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  ExpectSameAssets(*da, *db);
}

TEST(GeneratorModesTest, ParallelTilesMatchSerialByteForByte) {
  CityConfig config;
  config.scale_factor = 2;
  config.width = 64;
  config.height = 36;
  config.duration_seconds = 0.5;
  config.fps = 16;
  config.seed = 11;
  sim::GeneratorOptions serial, threaded;
  serial.threads = 1;
  threaded.threads = 8;
  VisualCityGenerator a(serial), b(threaded);
  auto da = a.Generate(config);
  auto db = b.Generate(config);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(a.last_stats().workers, 1);
  EXPECT_EQ(b.last_stats().workers, 8);
  EXPECT_GT(b.last_stats().pool.tasks_executed, 0);
  ExpectSameAssets(*da, *db);
}

TEST(GeneratorModesTest, RejectsInvalidConfig) {
  VisualCityGenerator generator({});
  CityConfig bad;
  bad.scale_factor = 0;
  EXPECT_FALSE(generator.Generate(bad).ok());
  bad.scale_factor = 1;
  bad.fps = 5.0;  // Below the supported 15-90 range.
  EXPECT_FALSE(generator.Generate(bad).ok());
  bad.fps = 120.0;
  EXPECT_FALSE(generator.Generate(bad).ok());
}

// --- Recorded corpus & negative controls ---

TEST(RecordedCorpusTest, GeneratesAnnotatedVideos) {
  RecordedCorpusConfig config;
  config.video_count = 2;
  config.width = 64;
  config.height = 36;
  config.duration_seconds = 0.5;
  config.fps = 16;
  video::codec::EncoderConfig codec;
  codec.qp = 24;
  auto corpus = GenerateRecordedCorpus(config, codec);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->assets.size(), 2u);
  for (const VideoAsset& asset : corpus->assets) {
    EXPECT_EQ(asset.container.video.FrameCount(), 8);
    EXPECT_EQ(asset.ground_truth.size(), 8u);
  }
}

TEST(RecordedCorpusTest, SensorNoiseMakesItLessCompressible) {
  RecordedCorpusConfig noisy, clean;
  noisy.video_count = clean.video_count = 1;
  noisy.width = clean.width = 64;
  noisy.height = clean.height = 36;
  noisy.duration_seconds = clean.duration_seconds = 0.5;
  clean.sensor_noise_stddev = 0.0;
  clean.exposure_wobble = 0.0;
  clean.jitter_radians = 0.0;
  video::codec::EncoderConfig codec;
  codec.qp = 24;
  auto noisy_corpus = GenerateRecordedCorpus(noisy, codec);
  auto clean_corpus = GenerateRecordedCorpus(clean, codec);
  ASSERT_TRUE(noisy_corpus.ok());
  ASSERT_TRUE(clean_corpus.ok());
  EXPECT_GT(noisy_corpus->assets[0].container.video.TotalBytes(),
            clean_corpus->assets[0].container.video.TotalBytes());
}

TEST(RecordedCorpusTest, DuplicateCorpusReplicatesFirstVideo) {
  RecordedCorpusConfig config;
  config.video_count = 2;
  config.width = 64;
  config.height = 36;
  config.duration_seconds = 0.5;
  video::codec::EncoderConfig codec;
  auto source = GenerateRecordedCorpus(config, codec);
  ASSERT_TRUE(source.ok());
  Dataset duplicates = MakeDuplicateCorpus(*source, 5);
  ASSERT_EQ(duplicates.assets.size(), 5u);
  for (const VideoAsset& asset : duplicates.assets) {
    EXPECT_EQ(asset.container.video.TotalBytes(),
              source->assets[0].container.video.TotalBytes());
  }
}

TEST(RecordedCorpusTest, RandomCorpusMatchesShapeAndHasNoObjects) {
  RecordedCorpusConfig config;
  config.video_count = 2;
  config.width = 64;
  config.height = 36;
  config.duration_seconds = 0.5;
  video::codec::EncoderConfig codec;
  auto source = GenerateRecordedCorpus(config, codec);
  ASSERT_TRUE(source.ok());
  auto random = MakeRandomCorpus(*source, codec, 17);
  ASSERT_TRUE(random.ok());
  ASSERT_EQ(random->assets.size(), 2u);
  for (size_t i = 0; i < random->assets.size(); ++i) {
    EXPECT_EQ(random->assets[i].container.video.FrameCount(),
              source->assets[i].container.video.FrameCount());
    for (const FrameGroundTruth& frame : random->assets[i].ground_truth) {
      EXPECT_TRUE(frame.boxes.empty());
    }
    // Noise resists compression: bigger than the structured original.
    EXPECT_GT(random->assets[i].container.video.TotalBytes(),
              source->assets[i].container.video.TotalBytes());
  }
}

}  // namespace
}  // namespace visualroad::sim
