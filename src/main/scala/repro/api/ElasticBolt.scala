package repro.api

import scala.collection.mutable

/** A keyed input tuple as seen by user operator code. */
final case class StreamTuple(key: Long, payload: Any)

/** Per-key state access interface exposed to [[ElasticBolt]] code (§5:
  * "ElasticBolt ... exposes a new state access interface to the user
  * space"). Reads and updates go through the executor's in-memory key-value
  * store, enabling intra-process state sharing: when a shard moves between
  * tasks of the same process, no state is copied.
  */
trait KeyedState {
  def get[T](key: Long): Option[T]
  def put[T](key: Long, value: T): Unit
  def remove(key: Long): Unit
}

/** Simple in-memory implementation backing one executor process. */
final class InMemoryKeyedState extends KeyedState {
  private val store = mutable.HashMap.empty[Long, Any]
  override def get[T](key: Long): Option[T] = store.get(key).map(_.asInstanceOf[T])
  override def put[T](key: Long, value: T): Unit = store(key) = value
  override def remove(key: Long): Unit = store.remove(key)
  def size: Int = store.size
}

/** The user-facing operator abstraction, mirroring the paper's ElasticBolt:
  * identical contract to Storm's Bolt plus keyed state. Implementations
  * must touch state only for `tuple.key` — that is what makes the key space
  * divisible and the executor elastic.
  */
trait ElasticBolt {
  /** Process one input tuple; returns emitted downstream tuples. */
  def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple]
}
