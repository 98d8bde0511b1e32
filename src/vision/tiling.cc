#include "vision/tiling.h"

#include <algorithm>

#include "video/image_ops.h"

namespace visualroad::vision {

StatusOr<std::vector<video::Video>> PartitionVideo(const video::Video& input,
                                                   int tile_w, int tile_h) {
  if (input.frames.empty()) return Status::InvalidArgument("empty input video");
  if (tile_w < 1 || tile_h < 1) {
    return Status::InvalidArgument("tile dimensions must be positive");
  }
  int width = input.Width(), height = input.Height();
  int cols = (width + tile_w - 1) / tile_w;
  int rows = (height + tile_h - 1) / tile_h;

  std::vector<video::Video> tiles(static_cast<size_t>(cols) * rows);
  for (auto& tile : tiles) tile.fps = input.fps;

  for (const video::Frame& frame : input.frames) {
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        RectI rect{c * tile_w, r * tile_h, std::min((c + 1) * tile_w, width),
                   std::min((r + 1) * tile_h, height)};
        VR_ASSIGN_OR_RETURN(video::Frame cropped, video::Crop(frame, rect));
        tiles[static_cast<size_t>(r) * cols + c].frames.push_back(std::move(cropped));
      }
    }
  }
  return tiles;
}

StatusOr<video::Video> ReassembleTiles(const std::vector<video::Video>& tiles,
                                       int cols, int rows) {
  if (cols < 1 || rows < 1 ||
      tiles.size() != static_cast<size_t>(cols) * static_cast<size_t>(rows)) {
    return Status::InvalidArgument("tile grid shape does not match tile count");
  }
  size_t frame_count = tiles[0].frames.size();
  for (const video::Video& tile : tiles) {
    if (tile.frames.size() != frame_count) {
      return Status::InvalidArgument("tiles disagree on frame count");
    }
  }
  // Output size: sum of first-row widths x sum of first-column heights.
  int width = 0;
  for (int c = 0; c < cols; ++c) width += tiles[static_cast<size_t>(c)].Width();
  int height = 0;
  for (int r = 0; r < rows; ++r) {
    height += tiles[static_cast<size_t>(r) * cols].Height();
  }

  video::Video out;
  out.fps = tiles[0].fps;
  out.frames.reserve(frame_count);
  for (size_t f = 0; f < frame_count; ++f) {
    video::Frame frame(width, height);
    int y_offset = 0;
    for (int r = 0; r < rows; ++r) {
      int x_offset = 0;
      int row_height = tiles[static_cast<size_t>(r) * cols].Height();
      for (int c = 0; c < cols; ++c) {
        const video::Frame& tile = tiles[static_cast<size_t>(r) * cols + c].frames[f];
        for (int y = 0; y < tile.height(); ++y) {
          for (int x = 0; x < tile.width(); ++x) {
            frame.SetPixel(x_offset + x, y_offset + y, tile.Y(x, y), tile.U(x, y),
                           tile.V(x, y));
          }
        }
        x_offset += tile.width();
      }
      y_offset += row_height;
    }
    out.frames.push_back(std::move(frame));
  }
  return out;
}

StatusOr<video::Video> TiledReencode(const video::Video& input, int tile_w,
                                     int tile_h,
                                     const std::vector<int64_t>& bitrates,
                                     video::codec::Profile profile,
                                     int64_t* encoded_bytes_out, int width) {
  if (bitrates.empty()) return Status::InvalidArgument("no tile bitrates given");
  VR_ASSIGN_OR_RETURN(std::vector<video::Video> tiles,
                      PartitionVideo(input, tile_w, tile_h));
  int cols = (input.Width() + tile_w - 1) / tile_w;
  int rows = (input.Height() + tile_h - 1) / tile_h;

  // Decoded tiles are allocated here, on the calling thread, at their final
  // size; each tile task encodes its tile and decodes into its own slot.
  std::vector<video::Video> decoded(tiles.size());
  for (size_t i = 0; i < tiles.size(); ++i) {
    decoded[i].frames.assign(tiles[i].frames.size(),
                             video::Frame(tiles[i].Width(), tiles[i].Height()));
  }
  std::vector<int64_t> tile_bytes(tiles.size(), 0);
  VR_RETURN_IF_ERROR(video::codec::CodecParallelFor(
      width, static_cast<int>(tiles.size()), [&](int i) -> Status {
        video::codec::EncoderConfig config;
        config.profile = profile;
        config.target_bitrate_bps = bitrates[i % bitrates.size()];
        config.qp = 30;  // Starting point; the rate controller converges from here.
        VR_ASSIGN_OR_RETURN(video::codec::EncodedVideo encoded,
                            video::codec::Encode(tiles[i], config));
        tile_bytes[i] = encoded.TotalBytes();
        return video::codec::DecodeInto(encoded, decoded[i]);
      }));
  if (encoded_bytes_out != nullptr) {
    *encoded_bytes_out = 0;
    for (int64_t bytes : tile_bytes) *encoded_bytes_out += bytes;
  }
  return ReassembleTiles(decoded, cols, rows);
}

}  // namespace visualroad::vision
