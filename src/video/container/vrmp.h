#ifndef VISUALROAD_VIDEO_CONTAINER_VRMP_H_
#define VISUALROAD_VIDEO_CONTAINER_VRMP_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "video/codec/codec.h"

namespace visualroad::video::container {

/// A metadata track embedded in a VRMP container. Visual Road uses two
/// kinds: "WVTT" (a WebVTT caption document, Q6(b)) and "GTRU" (serialised
/// ground truth produced by the VCG for semantic validation).
struct MetadataTrack {
  std::string kind;  // Exactly four ASCII characters.
  std::vector<uint8_t> payload;
};

/// An in-memory VRMP container: one encoded video elementary stream plus any
/// number of metadata tracks. VRMP plays the role MP4 plays in the paper
/// (Section 5): it muxes the stream, carries a frame index for random
/// access, and embeds caption/metadata tracks.
struct Container {
  codec::EncodedVideo video;
  std::vector<MetadataTrack> tracks;

  /// Returns the first track of the given kind, or nullptr.
  const MetadataTrack* FindTrack(const std::string& kind) const;
};

/// Serialises a container to bytes. Layout: a "VRMP" magic/version box, a
/// "PROP" stream-properties box, an "INDX" frame index (sizes, key flags,
/// QPs), an "MDAT" box with concatenated frame payloads, and one "TRAK" box
/// per metadata track.
std::vector<uint8_t> Mux(const Container& container);

/// Largest frame width or height a container holds: above 3840x2160, the
/// largest resolution the paper renders, with headroom. Demux rejects a PROP
/// box past it as corrupt (decoding it would allocate planes of that size).
inline constexpr uint32_t kMaxDimension = 8192;

/// ResourceExhausted when a width x height frame exceeds kMaxDimension. Engine
/// output and WriteContainerFile check it, so Demux accepts what they emit.
Status CheckFrameSize(int64_t width, int64_t height);

/// Parses bytes produced by Mux. Validates magic, version, box sizes, the
/// frame size (1..kMaxDimension) and that the frame count fits the input.
StatusOr<Container> Demux(const std::vector<uint8_t>& bytes);

/// Writes a muxed container to `path` through a temporary file renamed over
/// it, so concurrent writers of one path leave one complete container.
Status WriteContainerFile(const Container& container, const std::string& path);

/// Reads and demuxes a container from `path`.
StatusOr<Container> ReadContainerFile(const std::string& path);

}  // namespace visualroad::video::container

#endif  // VISUALROAD_VIDEO_CONTAINER_VRMP_H_
