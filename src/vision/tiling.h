#ifndef VISUALROAD_VISION_TILING_H_
#define VISUALROAD_VISION_TILING_H_

#include <vector>

#include "common/status.h"
#include "video/codec/codec.h"
#include "video/frame.h"

namespace visualroad::vision {

/// Splits every frame of `input` into a grid of (tile_w x tile_h) regions
/// (Q3's Partition operator). Tiles are returned row-major; edge tiles may be
/// smaller when the resolution is not a multiple of the tile size.
StatusOr<std::vector<video::Video>> PartitionVideo(const video::Video& input,
                                                   int tile_w, int tile_h);

/// Reassembles row-major tiles produced by PartitionVideo back into full
/// frames.
StatusOr<video::Video> ReassembleTiles(const std::vector<video::Video>& tiles,
                                       int cols, int rows);

/// Q3's full Subquery: partition into (dx, dy) tiles, re-encode tile i at
/// bitrates[i % bitrates.size()] bits/second, decode, and reassemble. Returns
/// the reassembled video; `encoded_bytes_out` (optional) receives the total
/// encoded payload size. Each tile's encode and decode is one task on the
/// codec pool, `width` wide (video::codec::CodecParallelFor); the output is
/// the same at every width.
StatusOr<video::Video> TiledReencode(const video::Video& input, int tile_w,
                                     int tile_h,
                                     const std::vector<int64_t>& bitrates,
                                     video::codec::Profile profile,
                                     int64_t* encoded_bytes_out = nullptr,
                                     int width = 1);

}  // namespace visualroad::vision

#endif  // VISUALROAD_VISION_TILING_H_
